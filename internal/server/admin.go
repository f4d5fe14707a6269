package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/pprof"

	"repro/internal/gf"
	"repro/internal/obs"
	"repro/internal/obs/trace"
	"repro/internal/pipeline"
)

// RegisterMetrics registers the server ledger, the shared pipeline's
// stage instruments and the process-wide GF kernel tier counters
// with reg. Call once per server per registry.
func (s *Server) RegisterMetrics(reg *obs.Registry) {
	reg.CounterFunc("gfp_server_connections_accepted_total",
		"Client connections accepted.", s.ctr.ConnsAccepted.Load)
	reg.GaugeFunc("gfp_server_connections_active",
		"Client connections currently open.",
		func() float64 { return float64(s.ctr.ConnsActive.Load()) })
	reg.CounterFunc("gfp_server_requests_total",
		"Requests framed off client connections.", s.ctr.Requests.Load)
	reg.CounterFunc("gfp_server_responses_total",
		"OK responses written to clients.", s.ctr.Responses.Load)
	reg.CounterFunc("gfp_server_rejects_total",
		"Error-status responses written to clients.", s.ctr.Rejects.Load)
	reg.CounterFunc("gfp_server_dropped_total",
		"Requests whose response was never written (connection died).",
		s.ctr.Dropped.Load)
	reg.CounterFunc("gfp_server_protocol_errors_total",
		"Framing violations that poisoned a connection (outside the request ledger).",
		s.ctr.ProtoErrors.Load)
	reg.CounterFunc("gfp_server_bytes_in_total",
		"Request bytes read off the wire (headers included).", s.ctr.BytesIn.Load)
	reg.CounterFunc("gfp_server_bytes_out_total",
		"Response bytes written to the wire (headers included).", s.ctr.BytesOut.Load)
	reg.GaugeFunc("gfp_server_info",
		"Constant 1; labels carry the codec configuration.",
		func() float64 { return 1 },
		obs.L("code", fmt.Sprintf("RS(%d,%d)", s.cfg.N, s.cfg.K)),
		obs.L("depth", fmt.Sprintf("%d", s.cfg.Depth)))

	if e := s.ecc; e != nil {
		reg.CounterFunc("gfp_ecc_ops_total",
			"Completed ECC operations.", e.derives.Load, obs.L("op", "ecdh-derive"))
		reg.CounterFunc("gfp_ecc_ops_total",
			"Completed ECC operations.", e.signs.Load, obs.L("op", "ecdsa-sign"))
		reg.CounterFunc("gfp_ecc_ops_total",
			"Completed ECC operations.", e.verifies.Load, obs.L("op", "ecdsa-verify"))
		reg.CounterFunc("gfp_ecc_ops_total",
			"Completed ECC operations.", e.sessions.Load, obs.L("op", "secure-session"))
		reg.CounterFunc("gfp_ecc_failures_total",
			"ECC operations that failed semantically (off-curve point, bad signature, ...).",
			e.failures.Load)
		reg.HistogramFunc("gfp_ecc_derive_seconds",
			"ecdh-derive compute latency (engine only, excludes queueing).", &e.deriveLat)
		reg.HistogramFunc("gfp_ecc_sign_seconds",
			"ecdsa-sign compute latency (engine only, excludes queueing).", &e.signLat)
		reg.GaugeFunc("gfp_ecc_info",
			"Constant 1; labels carry the ECC service configuration.",
			func() float64 { return 1 },
			obs.L("curve", e.curveName),
			obs.L("mul_strategy", e.eng.Curve().F.MulStrategy().String()))
	}

	for op := Op(1); int(op) < len(s.opLat); op++ {
		reg.HistogramFuncEx("gfp_server_op_latency_seconds",
			"End-to-end request latency (framed off the socket to response written), per op.",
			&s.opLat[op], &s.opEx[op], obs.L("op", op.String()))
	}
	s.cfg.SLO.RegisterMetrics(reg)

	s.pl.RegisterMetrics(reg)
	pipeline.RegisterGFKernelMetrics(reg)
}

// Healthy reports nil while the server is accepting and processing:
// Serve has been called, Shutdown has not, the shared pipeline still
// takes frames, and the once-per-process datapath self-test (see
// SelfTest) has passed — a backend whose kernel tables disagree with
// the scalar reference never reports healthy, so a routing front door
// ejects it instead of spreading wrong math. /healthz maps nil to 200
// and an error to 503.
func (s *Server) Healthy() error {
	if err := s.Accepting(); err != nil {
		return err
	}
	if s.run.Closed() {
		return errors.New("pipeline closed")
	}
	if st := s.startupSelfTest(); !st.OK {
		return fmt.Errorf("datapath selftest failed: %s", st.Error)
	}
	return nil
}

// Statsz is the /statsz payload: the GFP1 stats-op snapshot plus the
// full metrics registry, the GF kernel-tier selections (the
// implementation tier each field's binding gives each (field, op)) and
// the SLO status — a superset of what the wire protocol's OpStats
// returns.
type Statsz struct {
	*StatsSnapshot
	Metrics          []obs.Metric       `json:"metrics"`
	KernelSelections []gf.TierSelection `json:"kernel_selections,omitempty"`
	SLO              []obs.SLOStatus    `json:"slo,omitempty"`
}

// TraceSnap captures the server's distributed-trace span ring — the
// state /tracez serves.
func (s *Server) TraceSnap() trace.Snap { return s.spans.Snap() }

// AdminHandler returns the admin mux gfserved mounts on -admin:
// /metrics (Prometheus text), /healthz, /statsz (JSON), /tracez
// (distributed-trace spans; see docs/OBSERVABILITY.md), /selftest
// (re-runs the differential datapath verification) and the
// net/http/pprof endpoints under /debug/pprof/.
func (s *Server) AdminHandler(reg *obs.Registry) http.Handler {
	mux := http.NewServeMux()
	mux.Handle("/metrics", reg.Handler())
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, _ *http.Request) {
		if err := s.Healthy(); err != nil {
			http.Error(w, err.Error(), http.StatusServiceUnavailable)
			return
		}
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprintln(w, "ok")
	})
	mux.HandleFunc("/statsz", func(w http.ResponseWriter, _ *http.Request) {
		sz := Statsz{
			StatsSnapshot:    s.Snapshot(),
			Metrics:          reg.Gather(),
			KernelSelections: gf.Selections(),
			SLO:              s.cfg.SLO.Snapshot(),
		}
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		enc.Encode(sz)
	})
	mux.HandleFunc("/tracez", trace.Handler("gfserved", s.spans.Snap))
	mux.HandleFunc("/selftest", func(w http.ResponseWriter, _ *http.Request) {
		res := s.SelfTest()
		w.Header().Set("Content-Type", "application/json")
		if !res.OK {
			w.WriteHeader(http.StatusInternalServerError)
		}
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		enc.Encode(res)
	})
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}
