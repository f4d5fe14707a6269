package obs

import (
	"fmt"
	"sync/atomic"
	"time"

	"repro/internal/perf"
)

// Exemplar is a lock-free slot pairing a histogram with the trace id of
// a recently observed sample, so a latency distribution links back to
// one concrete traced request ("/tracez?…" has the full span breakdown
// for it). Record is two atomic stores on the hot path; readers may see
// a torn (trace, value) pair across concurrent records, which is
// acceptable for a debugging hint.
type Exemplar struct {
	trace atomic.Uint64
	ns    atomic.Int64
	at    atomic.Int64
}

// Record notes that a sample of ns nanoseconds belonged to trace.
// A zero trace id is ignored.
func (e *Exemplar) Record(trace uint64, ns int64) {
	if trace == 0 {
		return
	}
	e.trace.Store(trace)
	e.ns.Store(ns)
	e.at.Store(time.Now().UnixNano())
}

// ExemplarSample is a gathered exemplar: the trace id (16-digit hex,
// matching the span encoding) plus the sample it came from.
type ExemplarSample struct {
	TraceID  string `json:"trace_id"`
	ValueNs  int64  `json:"value_ns"`
	AtUnixNs int64  `json:"at_unix_ns"`
}

// sample materializes the exemplar, or nil if none was ever recorded.
func (e *Exemplar) sample() *ExemplarSample {
	t := e.trace.Load()
	if t == 0 {
		return nil
	}
	return &ExemplarSample{
		TraceID:  fmt.Sprintf("%016x", t),
		ValueNs:  e.ns.Load(),
		AtUnixNs: e.at.Load(),
	}
}

// HistogramFuncEx is HistogramFunc with an exemplar slot attached: the
// gathered HistSample carries the exemplar's trace id, so JSON
// consumers (/statsz, -metrics-out dumps) can jump from a latency
// distribution to one traced request. The Prometheus text exposition is
// unchanged (text v0.0.4 has no exemplar syntax).
func (r *Registry) HistogramFuncEx(name, help string, h *perf.Hist, ex *Exemplar, labels ...Label) {
	if h == nil {
		panic("obs: HistogramFuncEx with nil perf.Hist for " + name)
	}
	s := r.register(name, help, KindHistogram, labels)
	r.mu.Lock()
	s.histRef = h
	s.ex = ex
	r.mu.Unlock()
}
