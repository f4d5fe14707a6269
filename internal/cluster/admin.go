package cluster

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/pprof"
	"sort"

	"repro/internal/obs"
	"repro/internal/obs/trace"
	"repro/internal/server"
)

// ProxyCounters is the serialized proxy-level ledger. Like the backend
// server's, it is exact and disjoint once the proxy quiesces:
//
//	Requests == Responses + Rejects + Dropped
//
// AdmissionRejects and ProtoErrors are subsets of Rejects and of
// connection teardowns respectively; Retries and BackendFailures count
// forward attempts, not client requests, and sit outside the ledger.
type ProxyCounters struct {
	ConnsAccepted    int64 `json:"conns_accepted"`
	ConnsActive      int64 `json:"conns_active"`
	Requests         int64 `json:"requests"`
	Responses        int64 `json:"responses"`
	Rejects          int64 `json:"rejects"`
	Dropped          int64 `json:"dropped"`
	ProtoErrors      int64 `json:"proto_errors"`
	Retries          int64 `json:"retries"`
	BackendFailures  int64 `json:"backend_failures"`
	AdmissionRejects int64 `json:"admission_rejects"`
	Ejections        int64 `json:"ejections"`
	Readmits         int64 `json:"readmits"`
	BytesIn          int64 `json:"bytes_in"`
	BytesOut         int64 `json:"bytes_out"`
}

// snapshot reads the ledger terminal-outcomes-first (requests last, see
// server.Ledger.Snapshot), so a live snapshot never shows Requests
// below the terminal sum, then the proxy's own counters.
func (p *Proxy) snapshot() ProxyCounters {
	l := p.Ledger().Snapshot()
	return ProxyCounters{
		ConnsAccepted:    l.ConnsAccepted,
		ConnsActive:      l.ConnsActive,
		Requests:         l.Requests,
		Responses:        l.Responses,
		Rejects:          l.Rejects,
		Dropped:          l.Dropped,
		ProtoErrors:      l.ProtoErrors,
		Retries:          p.ctr.retries.Load(),
		BackendFailures:  p.ctr.backendFails.Load(),
		AdmissionRejects: p.ctr.admRejects.Load(),
		Ejections:        p.ctr.ejections.Load(),
		Readmits:         p.ctr.readmits.Load(),
		BytesIn:          l.BytesIn,
		BytesOut:         l.BytesOut,
	}
}

// RegisterMetrics registers the proxy ledger and per-backend routing
// counters with reg, under gfp_proxy_* — disjoint from the backend
// servers' gfp_server_* families, so the proxy's /metrics can render
// both sets on one page without collisions. Call once per proxy per
// registry.
func (p *Proxy) RegisterMetrics(reg *obs.Registry) {
	l := p.Ledger()
	reg.CounterFunc("gfp_proxy_connections_accepted_total",
		"Client connections accepted by the proxy.", l.ConnsAccepted.Load)
	reg.GaugeFunc("gfp_proxy_connections_active",
		"Client connections currently open on the proxy.",
		func() float64 { return float64(l.ConnsActive.Load()) })
	reg.CounterFunc("gfp_proxy_requests_total",
		"Requests framed off client connections.", l.Requests.Load)
	reg.CounterFunc("gfp_proxy_responses_total",
		"OK responses relayed to clients.", l.Responses.Load)
	reg.CounterFunc("gfp_proxy_rejects_total",
		"Error-status responses written to clients (backend and proxy origin).",
		l.Rejects.Load)
	reg.CounterFunc("gfp_proxy_dropped_total",
		"Requests whose response was never written (connection died).",
		l.Dropped.Load)
	reg.CounterFunc("gfp_proxy_protocol_errors_total",
		"Framing violations that poisoned a client connection.",
		l.ProtoErrors.Load)
	reg.CounterFunc("gfp_proxy_retries_total",
		"Forward attempts beyond the first (idempotent or retry-safe replays).",
		p.ctr.retries.Load)
	reg.CounterFunc("gfp_proxy_backend_failures_total",
		"Transport-level forward failures across all backends.",
		p.ctr.backendFails.Load)
	reg.CounterFunc("gfp_proxy_admission_rejects_total",
		"Requests rejected by the per-tenant in-flight bound.",
		p.ctr.admRejects.Load)
	reg.CounterFunc("gfp_proxy_ejections_total",
		"Backend healthy->ejected transitions.", p.ctr.ejections.Load)
	reg.CounterFunc("gfp_proxy_readmits_total",
		"Backend ejected->healthy transitions.", p.ctr.readmits.Load)
	reg.CounterFunc("gfp_proxy_bytes_in_total",
		"Request bytes read off client connections (headers included).",
		l.BytesIn.Load)
	reg.CounterFunc("gfp_proxy_bytes_out_total",
		"Response bytes written to client connections (headers included).",
		l.BytesOut.Load)
	reg.GaugeFunc("gfp_proxy_backends",
		"Configured fleet size.",
		func() float64 { return float64(len(p.backends)) })
	reg.GaugeFunc("gfp_proxy_backends_healthy",
		"Backends currently admitted to the ring.",
		func() float64 { return float64(p.healthyBackends()) })

	for op := server.Op(1); int(op) < len(p.opLat); op++ {
		reg.HistogramFuncEx("gfp_proxy_op_latency_seconds",
			"End-to-end proxied request latency (framed off the client socket to response written), per op.",
			&p.opLat[op], &p.opEx[op], obs.L("op", op.String()))
	}
	p.cfg.SLO.RegisterMetrics(reg)

	for _, b := range p.backends {
		addr := obs.L("backend", b.spec.Addr)
		reg.CounterFunc("gfp_proxy_backend_forwards_total",
			"Forward attempts per backend (retries included).", b.forwards.Load, addr)
		reg.CounterFunc("gfp_proxy_backend_failures_by_backend_total",
			"Transport-level forward failures per backend.", b.failures.Load, addr)
		reg.CounterFunc("gfp_proxy_backend_ejections_total",
			"Ejections per backend.", b.ejections.Load, addr)
		reg.CounterFunc("gfp_proxy_backend_readmits_total",
			"Readmissions per backend.", b.readmits.Load, addr)
		reg.GaugeFunc("gfp_proxy_backend_healthy",
			"1 while the backend is admitted to the ring, 0 while ejected.",
			func(b *backend) func() float64 {
				return func() float64 {
					if b.healthy() {
						return 1
					}
					return 0
				}
			}(b), addr)
	}
}

// Healthy reports nil while the proxy is accepting and at least one
// backend is admitted to the ring. /healthz maps nil to 200 and an
// error to 503, so a load balancer in front of several proxies drains
// one whose whole fleet is dark.
func (p *Proxy) Healthy() error {
	if err := p.Accepting(); err != nil {
		return err
	}
	if n := p.healthyBackends(); n == 0 {
		return fmt.Errorf("0 of %d backends healthy", len(p.backends))
	}
	return nil
}

// Statsz is the proxy's /statsz payload: its own ledger, the admission
// table, and the fleet aggregate (per-backend status plus the summed
// backend ledgers and merged latency).
type Statsz struct {
	ListenAddr string           `json:"listen_addr,omitempty"`
	Proxy      ProxyCounters    `json:"proxy"`
	Tenants    []TenantSnapshot `json:"tenants,omitempty"`
	Fleet      *FleetStats      `json:"fleet"`
	SLO        []obs.SLOStatus  `json:"slo,omitempty"`
}

// Statsz captures the full admin snapshot: proxy ledger, tenants
// sorted by class, and a fresh fleet scrape.
func (p *Proxy) Statsz() Statsz {
	sz := Statsz{
		Proxy:   p.snapshot(),
		Tenants: p.adm.snapshot(),
		Fleet:   p.fleetSnapshot(),
		SLO:     p.cfg.SLO.Snapshot(),
	}
	sort.Slice(sz.Tenants, func(i, j int) bool { return sz.Tenants[i].Class < sz.Tenants[j].Class })
	if a := p.Addr(); a != nil {
		sz.ListenAddr = a.String()
	}
	return sz
}

// TraceSnap captures the proxy's own distributed-trace span ring (no
// fleet scrape — see fleetTraceSnap for the merged view /tracez serves).
func (p *Proxy) TraceSnap() trace.Snap { return p.spans.Snap() }

// AdminHandler returns the admin mux gfproxy mounts on -admin:
// /metrics (the proxy registry plus the fleet's merged gfp_server_* and
// gfp_pipeline_* families as one Prometheus page), /healthz, /statsz
// (JSON), /tracez (the proxy's spans merged with every backend's, so a
// trace reads end to end from one scrape) and the net/http/pprof
// endpoints under /debug/pprof/.
func (p *Proxy) AdminHandler(reg *obs.Registry) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
		fleet := p.fleetSnapshot()
		merged := obs.MergeMetrics(reg.Gather(), fleet.metrics)
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		obs.WriteMetricsText(w, merged)
	})
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, _ *http.Request) {
		if err := p.Healthy(); err != nil {
			http.Error(w, err.Error(), http.StatusServiceUnavailable)
			return
		}
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprintln(w, "ok")
	})
	mux.HandleFunc("/statsz", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		enc.Encode(p.Statsz())
	})
	mux.HandleFunc("/tracez", trace.Handler("gfproxy", p.fleetTraceSnap))
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}
