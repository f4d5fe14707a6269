package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"

	"repro/internal/ecc"
	"repro/internal/gf"
	"repro/internal/server"
)

// traceDir holds the traced runs' record files, relative to the
// directory the benchmark runs in.
const traceDir = ".bench_build/perfbench"

// hostRecord is the run record: what a metric that splits between runs
// can be traced back to. Kernel selection is a per-process timing race,
// so the frozen selections are recorded, never pinned.
type hostRecord struct {
	Workload    string             `json:"workload"`
	Seed        int64              `json:"seed"`
	Seconds     int                `json:"seconds"`
	NumCPU      int                `json:"nproc"`
	GOMAXPROCS  int                `json:"gomaxprocs"`
	GoVersion   string             `json:"go_version"`
	Addrs       []string           `json:"addrs"` // backends, then proxy
	Share       []float64          `json:"backend_share"`
	StealPct    float64            `json:"host_steal_pct"` // CPU stolen by other guests during the run
	Selections  []gf.TierSelection `json:"gf_selections"`
	MulStrategy string             `json:"gfbig_mul_strategy"`
}

func newHostRecord(o options, w *workload, st *stack, paced *phaseResult, steal0, total0 int64) hostRecord {
	steal1, total1 := hostCPU()
	h := hostRecord{
		StealPct: 100 * float64(steal1-steal0) / float64(max(total1-total0, 1)),
		Workload: w.name, Seed: o.seed, Seconds: o.seconds,
		NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
		Addrs: st.addrs, Selections: gf.Selections(),
	}
	if c, err := ecc.CurveByName(server.DefaultCurve); err == nil {
		h.MulStrategy = c.F.MulStrategy().String()
	}
	total := int64(0)
	for i := range paced.after.Forwards {
		total += paced.after.Forwards[i] - paced.before.Forwards[i]
	}
	for i := range paced.after.Forwards {
		h.Share = append(h.Share, float64(paced.after.Forwards[i]-paced.before.Forwards[i])/float64(max(total, 1)))
	}
	return h
}

func (h hostRecord) print(w io.Writer) {
	fmt.Fprintf(w, "host: nproc %d, GOMAXPROCS %d, %s, seed %d, --seconds %d, CPU steal %.1f%%\n",
		h.NumCPU, h.GOMAXPROCS, h.GoVersion, h.Seed, h.Seconds, h.StealPct)
	fmt.Fprintf(w, "stack: backends %s, proxy %s; paced split %s\n",
		strings.Join(h.Addrs[:len(h.Addrs)-1], " "), h.Addrs[len(h.Addrs)-1], fmtShares(h.Share))
	fmt.Fprintf(w, "gfbig mul strategy (%s): %s\n", server.DefaultCurve, h.MulStrategy)
	var fields []string
	ops := map[string][]string{}
	for _, s := range h.Selections {
		sel := s.Op + "=" + s.Below
		if s.Crossover > 0 {
			sel += fmt.Sprintf("|%s@%d", s.Above, s.Crossover)
		}
		if ops[s.Field] == nil {
			fields = append(fields, s.Field)
		}
		ops[s.Field] = append(ops[s.Field], sel)
	}
	for _, f := range fields {
		fmt.Fprintf(w, "gf selections %s: %s\n", f, strings.Join(ops[f], " "))
	}
}

func fmtShares(s []float64) string {
	var parts []string
	for _, v := range s {
		parts = append(parts, fmt.Sprintf("%.1f%%", 100*v))
	}
	return strings.Join(parts, "/")
}

func isCodec(r *request) bool { return r.spec.codec() }
func isECC(r *request) bool   { return !r.spec.codec() }

// p99Classes are the op classes whose paced p99 a run reports.
var p99Classes = []struct {
	name string
	keep func(*request) bool
}{{"all", nil}, {"codec", isCodec}, {"ecc", isECC}}

// classP99 is the nearest-rank p99 of the paced requests of one op
// class. A workload without that class reports the p99 of all its
// requests, so every workload prints every metric.
func classP99(ph *phase, keep func(*request) bool) float64 {
	lat := ph.latencies(keep)
	if len(lat) == 0 {
		lat = ph.latencies(nil)
	}
	return percentile(sortedCopy(lat), 99)
}

// tailCounts is each p99 class's paced sample count and the samples
// beyond its p99.
func tailCounts(ph *phase) string {
	var parts []string
	for _, c := range p99Classes {
		if n := len(ph.latencies(c.keep)); n > 0 {
			parts = append(parts, fmt.Sprintf("%s %d (%d beyond p99)", c.name, n, beyond(n, 99)))
		}
	}
	return strings.Join(parts, ", ")
}

// gated are the end-to-end metrics BENCHMARK.json bounds, and the only
// ones an untraced run's result line carries. The others are printed
// with the run but not gated: in ten runs of this configuration on the
// shared 2-CPU host they spread wider than the bound they would need
// (README.md, Steadiness).
var gated = map[string]bool{
	"setup_s":        true,
	"cpu_us_per_req": true,
	"peak_rss_mb":    true,
}

// endToEnd computes the metrics of an untraced run.
func endToEnd(probes []float64, capR, pacedR *phaseResult) map[string]metric {
	_, ok, _ := capR.ph.counts()
	lat := sortedCopy(pacedR.ph.latencies(nil))
	return map[string]metric{
		"setup_s":        {percentile(sortedCopy(probes), 50), "s"},
		"goodput_rps":    {float64(ok) / capR.wall().Seconds(), "req/s"},
		"cpu_us_per_req": {float64(capR.rt1.CPUNs-capR.rt0.CPUNs) / 1e3 / float64(max(ok, 1)), "us"},
		"p50_ms":         {percentile(lat, 50), "ms"},
		"p99_ms":         {classP99(pacedR.ph, nil), "ms"},
		"codec_p99_ms":   {classP99(pacedR.ph, isCodec), "ms"},
		"ecc_p99_ms":     {classP99(pacedR.ph, isECC), "ms"},
		"peak_rss_mb":    {capR.peakRSS, "MB"},
	}
}

// budget splits a phase's mean latency into layers, each the difference
// of two nested means, so the parts add up to the end-to-end mean.
type budget struct {
	Phase        string  `json:"phase"`
	Requests     int     `json:"requests"`
	EndToEnd     float64 `json:"end_to_end_us"`
	Client       float64 `json:"client_us"`        // end-to-end minus the proxy's op latency
	ClusterHop   float64 `json:"cluster_hop_us"`   // proxy op latency minus backend op latency
	ServerHop    float64 `json:"server_hop_us"`    // backend op latency minus pipeline submit-to-deliver
	PipelineWait float64 `json:"pipeline_wait_us"` // submit-to-deliver minus the dispatch stage
	Service      float64 `json:"service_us"`       // the dispatch stage's Process latency
}

func newBudget(r *phaseResult) budget {
	lat := r.ph.latencies(nil)
	proxy := allOps(r.after.ProxyOp).sub(allOps(r.before.ProxyOp)).meanUs()
	backend := allOps(r.after.ServerOp).sub(allOps(r.before.ServerOp)).meanUs()
	pipe := r.after.Pipeline.sub(r.before.Pipeline).meanUs()
	stage := r.after.Stage.sub(r.before.Stage).meanUs()
	e2e := mean(lat) * 1e3
	return budget{
		Phase: r.ph.name, Requests: len(lat), EndToEnd: e2e,
		Client: e2e - proxy, ClusterHop: proxy - backend, ServerHop: backend - pipe,
		PipelineWait: pipe - stage, Service: stage,
	}
}

func (b budget) print(w io.Writer) {
	fmt.Fprintf(w, "budget %-8s mean µs: client %.1f + cluster hop %.1f + server hop %.1f + pipeline wait %.1f + service %.1f = end-to-end %.1f (%d requests)\n",
		b.Phase, b.Client, b.ClusterHop, b.ServerHop, b.PipelineWait, b.Service, b.EndToEnd, b.Requests)
}

// perLayer computes the traced run's per-layer metrics and the budgets
// of its two timed phases.
func perLayer(capR, pacedR, refR *phaseResult, layers map[string]float64) (map[string]metric, []budget) {
	m := map[string]metric{}
	ph := pacedR.ph
	n := float64(len(ph.recs))
	var lags []float64
	type event struct {
		at    int64
		delta int
	}
	var events []event
	for i := range ph.recs {
		r := &ph.recs[i]
		lags = append(lags, float64(r.sent-r.due)/1e6)
		events = append(events, event{r.sent, 1})
		if r.reply > 0 {
			events = append(events, event{r.reply, -1})
		}
	}
	sort.Slice(events, func(i, j int) bool {
		if events[i].at != events[j].at {
			return events[i].at < events[j].at
		}
		return events[i].delta < events[j].delta
	})
	inflight, peak := 0, 0
	for _, e := range events {
		inflight += e.delta
		peak = max(peak, inflight)
	}
	m["loadgen.lag_p99_ms"] = metric{percentile(sortedCopy(lags), 99), "ms"}
	m["loadgen.inflight_max"] = metric{float64(peak), "count"}

	b, a := pacedR.before, pacedR.after
	proxy := allOps(a.ProxyOp).sub(allOps(b.ProxyOp))
	backend := allOps(a.ServerOp).sub(allOps(b.ServerOp))
	pipe := a.Pipeline.sub(b.Pipeline)
	stage := a.Stage.sub(b.Stage)
	m["cluster.hop_mean_us"] = metric{proxy.meanUs() - backend.meanUs(), "us"}
	m["cluster.backend_conns_per_kreq"] = metric{float64(a.connsAccepted()-b.connsAccepted()) * 1000 / n, "conns/kreq"}
	m["cluster.retries"] = metric{float64(a.Proxy.Retries), "count"}
	m["cluster.rejects"] = metric{float64(a.Proxy.Rejects), "count"}
	m["server.hop_mean_us"] = metric{backend.meanUs() - pipe.meanUs(), "us"}
	for _, op := range benchOps {
		name := op.String()
		m["server.op_mean_us."+name] = metric{a.ServerOp[name].sub(b.ServerOp[name]).meanUs(), "us"}
	}
	m["pipeline.wait_mean_us"] = metric{pipe.meanUs() - stage.meanUs(), "us"}
	m["pipeline.service_mean_us"] = metric{stage.meanUs(), "us"}

	decodes := 0
	for i := range ph.recs {
		if ph.req(i).spec.op == server.OpRSDecode {
			decodes++
		}
	}
	m["rs.corrected_per_req"] = metric{float64(a.Corrected-b.Corrected) / float64(max(decodes, 1)), "symbols/req"}
	for name, v := range layers {
		m[name] = metric{v, layerUnit(name)}
	}

	c0, c1 := capR.rt0, capR.rt1
	_, capOK, _ := capR.ph.counts()
	m["runtime.alloc_kb_per_req"] = metric{float64(c1.AllocBytes-c0.AllocBytes) / 1024 / float64(capOK), "KB/req"}
	m["runtime.gc_per_kreq"] = metric{float64(c1.GCCycles-c0.GCCycles) * 1000 / float64(capOK), "gc/kreq"}
	used := (c1.TotalCPUSec - c0.TotalCPUSec) - (c1.IdleCPUSec - c0.IdleCPUSec)
	gcPct := 0.0
	if used > 0 {
		gcPct = 100 * (c1.GCCPUSec - c0.GCCPUSec) / used
	}
	m["runtime.gc_cpu_pct"] = metric{gcPct, "%"}

	budgets := []budget{newBudget(capR), newBudget(pacedR)}
	m["budget.client_mean_us"] = metric{budgets[1].Client, "us"}
	traced := percentile(sortedCopy(ph.latencies(nil)), 50)
	untraced := percentile(sortedCopy(refR.ph.latencies(nil)), 50)
	m["trace.overhead_pct"] = metric{100 * (traced - untraced) / untraced, "%"}
	return m, budgets
}

// benchOps are the ops the workloads send, in protocol order.
var benchOps = []server.Op{server.OpRSEncode, server.OpRSDecode, server.OpSeal, server.OpOpen,
	server.OpECDSASign, server.OpECDSAVerify, server.OpSecureSession}

func layerUnit(name string) string {
	switch {
	case strings.HasSuffix(name, "_allocs"):
		return "count"
	case strings.HasSuffix(name, "_ns"):
		return "ns"
	}
	return "us"
}

// report is everything one run prints and, when traced, writes.
type report struct {
	o         options
	w         *workload
	plan      plan
	host      hostRecord
	timed     []*phaseResult
	setupSelf time.Duration
	probes    []float64
	failures  []string

	endToEnd  map[string]metric
	perLayer  map[string]metric
	budgets   []budget
	layers    map[string]float64
	tracePath string
}

func (r *report) counts() (attempted, failed int) {
	for _, t := range r.timed {
		a, _, f := t.ph.counts()
		attempted += a
		failed += f
	}
	return attempted, failed
}

func (r *report) correct() bool {
	_, failed := r.counts()
	return failed == 0 && len(r.failures) == 0
}

func (r *report) metrics() map[string]metric {
	if r.perLayer != nil {
		return r.perLayer
	}
	return r.endToEnd
}

// result is the metrics the result line carries: the per-layer metrics
// of a traced run, the gated end-to-end metrics of an untraced one.
func (r *report) result() map[string]metric {
	if r.perLayer != nil {
		return r.perLayer
	}
	out := map[string]metric{}
	for k, v := range r.endToEnd {
		if gated[k] {
			out[k] = v
		}
	}
	return out
}

func (r *report) print(w io.Writer) {
	fmt.Fprintf(w, "perfbench: workload %s (paced %g req/s), trace %d\n", r.w.name, r.w.rate, r.o.trace)
	r.host.print(w)
	fmt.Fprintf(w, "set-up: this process %.3f s", r.setupSelf.Seconds())
	if len(r.probes) > 0 {
		fmt.Fprintf(w, "; fresh processes %s s", fmtFloats(r.probes, "%.3f"))
	}
	fmt.Fprintln(w)
	for _, t := range r.timed {
		a, ok, f := t.ph.counts()
		fmt.Fprintf(w, "phase %-14s attempted %d ok %d failed %d, wall %.2f s", t.ph.name, a, ok, f, t.wall().Seconds())
		if t.ph.closed {
			fmt.Fprintf(w, ", %d connections × %d in flight\n", numConns, window)
		} else {
			fmt.Fprintf(w, ", samples %s\n", tailCounts(t.ph))
		}
	}
	fmt.Fprintf(w, "peak RSS (VmHWM): %.1f MB when the capacity phase ended, %.1f MB at exit\n",
		r.timed[0].peakRSS, peakRSSMB())
	for _, f := range r.failures {
		fmt.Fprintf(w, "FAILED: %s\n", f)
	}
	for _, b := range r.budgets {
		b.print(w)
	}
	m := r.metrics()
	names := make([]string, 0, len(m))
	for k := range m {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		note := ""
		if r.perLayer == nil && !gated[k] {
			note = "  (not gated)"
		}
		fmt.Fprintf(w, "  %-36s %14.4f %s%s\n", k, m[k].Value, m[k].Unit, note)
	}
	if r.tracePath != "" {
		fmt.Fprintf(w, "trace written to %s\n", r.tracePath)
	}
	attempted, failed := r.counts()
	line, _ := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{r.correct(), attempted, failed, r.result()})
	fmt.Fprintln(w, string(line))
}

func fmtFloats(xs []float64, f string) string {
	var parts []string
	for _, x := range xs {
		parts = append(parts, fmt.Sprintf(f, x))
	}
	return strings.Join(parts, " ")
}

// traceRecord is one request in the trace file.
type traceRecord struct {
	Op     string `json:"op"`
	Conn   uint8  `json:"conn"`
	DueNs  int64  `json:"due_ns"`
	SentNs int64  `json:"sent_ns"`
	Reply  int64  `json:"reply_ns"`
	Status string `json:"status"`
	OK     bool   `json:"ok"`
}

type tracePhase struct {
	Name     string        `json:"name"`
	Closed   bool          `json:"closed_loop"`
	Before   stackSnap     `json:"before"`
	After    stackSnap     `json:"after"`
	Runtime0 runtimeSnap   `json:"runtime_before"`
	Runtime1 runtimeSnap   `json:"runtime_after"`
	Requests []traceRecord `json:"requests"`
}

// writeTrace writes the traced run's records: per-request records and
// stack snapshots of every timed phase, the layer measurements, the
// budgets and the metrics, so a regression can be traced to a layer
// without rerunning.
func writeTrace(r *report) (string, error) {
	doc := struct {
		Host     hostRecord         `json:"host"`
		Plan     map[string]int     `json:"plan"`
		Phases   []tracePhase       `json:"phases"`
		Layers   map[string]float64 `json:"layers"`
		Budgets  []budget           `json:"budgets"`
		Metrics  map[string]metric  `json:"metrics"`
		Failures []string           `json:"failures"`
	}{
		Host:     r.host,
		Plan:     map[string]int{"warm-up": r.plan.warm, "capacity": r.plan.capacity, "paced": r.plan.paced},
		Layers:   r.layers,
		Budgets:  r.budgets,
		Metrics:  r.perLayer,
		Failures: r.failures,
	}
	for _, t := range r.timed {
		tp := tracePhase{Name: t.ph.name, Closed: t.ph.closed, Before: t.before, After: t.after,
			Runtime0: t.rt0, Runtime1: t.rt1}
		for i := range t.ph.recs {
			rec := &t.ph.recs[i]
			tp.Requests = append(tp.Requests, traceRecord{
				Op: t.ph.req(i).spec.op.String(), Conn: rec.conn, DueNs: rec.due, SentNs: rec.sent,
				Reply: rec.reply, Status: rec.status.String(), OK: rec.ok,
			})
		}
		doc.Phases = append(doc.Phases, tp)
	}
	if err := os.MkdirAll(traceDir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(traceDir, fmt.Sprintf("trace-%s-seed%d.json", r.w.name, r.o.seed))
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	if err := json.NewEncoder(f).Encode(doc); err != nil {
		f.Close()
		return "", fmt.Errorf("write %s: %w", path, err)
	}
	return path, f.Close()
}

// dropNonFinite removes the NaN and infinite values from m, such as the
// p99 of a phase in which more than 1% of the requests failed, and
// reports them as a failed check. JSON cannot carry them, and any
// stand-in number could read as a change of the metric.
func dropNonFinite(m map[string]metric) error {
	var bad []string
	for k, v := range m {
		if math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
			bad = append(bad, k)
			delete(m, k)
		}
	}
	if len(bad) == 0 {
		return nil
	}
	sort.Strings(bad)
	return fmt.Errorf("metrics not finite: %s", strings.Join(bad, ", "))
}
