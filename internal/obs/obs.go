// Package obs is the repo's unified observability core: a dependency-free
// metrics registry of read-through instruments (counters, gauges, and
// histograms over perf.Hist's power-of-two buckets), each backed by its
// producer's own atomics, with labeled families, stable iteration order,
// Prometheus text-format v0.0.4 exposition and JSON dumps.
//
// Every stats producer in the tree — pipeline stage stats, the perf cycle
// model, the server ledger, the adaptive controller, the gf kernel tiers —
// registers here as a named instrument, so gfserved's admin listener and
// the load drivers' -metrics-out dumps all read from one surface.
//
// The package deliberately imports nothing outside the standard library
// and repro/internal/perf (enforced by scripts/check_obs_imports.sh).
package obs

import (
	"fmt"
	"sort"
	"strings"
	"sync"

	"repro/internal/perf"
)

// Label is one key=value metric dimension.
type Label struct {
	Key   string `json:"key"`
	Value string `json:"value"`
}

// L builds a Label; it exists so call sites stay short.
func L(key, value string) Label { return Label{Key: key, Value: value} }

// Kind is the metric family type.
type Kind int

const (
	KindCounter Kind = iota
	KindGauge
	KindHistogram
)

// String returns the Prometheus TYPE keyword for the kind.
func (k Kind) String() string {
	switch k {
	case KindCounter:
		return "counter"
	case KindGauge:
		return "gauge"
	case KindHistogram:
		return "histogram"
	}
	return "untyped"
}

// MarshalText makes Kind render as its TYPE keyword in JSON dumps.
func (k Kind) MarshalText() ([]byte, error) { return []byte(k.String()), nil }

// UnmarshalText parses the TYPE keyword back, so a gathered metric set
// round-trips through JSON (the fleet aggregator scrapes backend
// /statsz dumps and merges them).
func (k *Kind) UnmarshalText(text []byte) error {
	switch string(text) {
	case "counter":
		*k = KindCounter
	case "gauge":
		*k = KindGauge
	case "histogram":
		*k = KindHistogram
	default:
		return fmt.Errorf("obs: unknown metric kind %q", text)
	}
	return nil
}

// series is one label combination inside a family. Exactly one of the
// value sources is set, the one matching the family's kind.
type series struct {
	labels []Label // sorted by key
	key    string  // canonical label encoding, family-unique

	ctrFn   func() int64
	gaugeFn func() float64
	histRef *perf.Hist
	ex      *Exemplar // optional exemplar slot (HistogramFuncEx)
}

// family is all series sharing one metric name.
type family struct {
	name   string
	help   string
	kind   Kind
	series map[string]*series
}

// Registry holds metric families. All methods are safe for concurrent
// use; registration and Gather take the registry lock, and the
// instruments read through to their producers' own atomics.
type Registry struct {
	mu       sync.Mutex
	families map[string]*family
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: make(map[string]*family)}
}

// CounterFunc registers a read-through counter backed by fn, for wiring
// existing atomic producers in without double accounting. fn must be
// safe for concurrent use and must not call back into the registry.
// Registering the same name+labels twice panics.
func (r *Registry) CounterFunc(name, help string, fn func() int64, labels ...Label) {
	s := r.register(name, help, KindCounter, labels)
	r.mu.Lock()
	s.ctrFn = fn
	r.mu.Unlock()
}

// GaugeFunc registers a read-through gauge backed by fn.
func (r *Registry) GaugeFunc(name, help string, fn func() float64, labels ...Label) {
	s := r.register(name, help, KindGauge, labels)
	r.mu.Lock()
	s.gaugeFn = fn
	r.mu.Unlock()
}

// HistogramFunc registers a read-through histogram over an existing live
// perf.Hist (e.g. a pipeline stage's latency histogram).
func (r *Registry) HistogramFunc(name, help string, h *perf.Hist, labels ...Label) {
	if h == nil {
		panic("obs: HistogramFunc with nil perf.Hist for " + name)
	}
	s := r.register(name, help, KindHistogram, labels)
	r.mu.Lock()
	s.histRef = h
	r.mu.Unlock()
}

// register adds the series name+labels, whose value source the caller
// fills in. It panics if the series exists, if name is registered with
// a different kind or help string, or if the name or labels are
// malformed.
func (r *Registry) register(name, help string, kind Kind, labels []Label) *series {
	validateName(name)
	ls := canonLabels(name, labels)
	key := labelKey(ls)

	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.families[name]
	if f == nil {
		f = &family{name: name, help: help, kind: kind, series: make(map[string]*series)}
		r.families[name] = f
	} else {
		if f.kind != kind {
			panic(fmt.Sprintf("obs: metric %q re-registered as %s, was %s", name, kind, f.kind))
		}
		if f.help != help {
			panic(fmt.Sprintf("obs: metric %q re-registered with different help text", name))
		}
	}
	if f.series[key] != nil {
		panic(fmt.Sprintf("obs: duplicate registration of %s{%s}", name, key))
	}
	s := &series{labels: ls, key: key}
	f.series[key] = s
	return s
}

// HistBucket is one non-empty histogram bucket in a gathered sample.
type HistBucket struct {
	UpperNs int64 `json:"upper_ns"` // exclusive upper bound; MaxInt64 = overflow
	Count   int64 `json:"count"`    // samples in this bucket (not cumulative)
}

// HistSample is a gathered histogram snapshot with summary percentiles
// and the non-empty raw buckets.
type HistSample struct {
	Count   int64        `json:"count"`
	SumNs   int64        `json:"sum_ns"`
	MaxNs   int64        `json:"max_ns"`
	MeanNs  int64        `json:"mean_ns"`
	P50Ns   int64        `json:"p50_ns"`
	P95Ns   int64        `json:"p95_ns"`
	P99Ns   int64        `json:"p99_ns"`
	Buckets []HistBucket `json:"buckets,omitempty"`

	// Exemplar, when present, names one traced request that contributed
	// a sample — the link from this distribution into /tracez.
	Exemplar *ExemplarSample `json:"exemplar,omitempty"`
}

// Sample is one gathered series: its labels plus either a scalar Value
// (counter, gauge) or a Hist snapshot.
type Sample struct {
	Labels []Label     `json:"labels,omitempty"`
	Value  float64     `json:"value"`
	Hist   *HistSample `json:"hist,omitempty"`
}

// Metric is one gathered family, samples sorted by label key.
type Metric struct {
	Name    string   `json:"name"`
	Help    string   `json:"help"`
	Kind    Kind     `json:"kind"`
	Samples []Sample `json:"samples"`
}

// Gather snapshots every registered series, families sorted by name and
// series sorted by label values, so successive gathers list metrics in
// a stable order.
func (r *Registry) Gather() []Metric {
	r.mu.Lock()
	defer r.mu.Unlock()

	names := make([]string, 0, len(r.families))
	for name := range r.families {
		names = append(names, name)
	}
	sort.Strings(names)

	out := make([]Metric, 0, len(names))
	for _, name := range names {
		f := r.families[name]
		m := Metric{Name: f.name, Help: f.help, Kind: f.kind}
		keys := make([]string, 0, len(f.series))
		for k := range f.series {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			m.Samples = append(m.Samples, f.series[k].sample(f.kind))
		}
		out = append(out, m)
	}
	return out
}

func (s *series) sample(kind Kind) Sample {
	out := Sample{Labels: s.labels}
	switch kind {
	case KindCounter:
		out.Value = float64(s.ctrFn())
	case KindGauge:
		out.Value = s.gaugeFn()
	case KindHistogram:
		out.Hist = histSample(s.histRef.Snapshot())
		if s.ex != nil {
			out.Hist.Exemplar = s.ex.sample()
		}
	}
	return out
}

func histSample(snap perf.HistSnapshot) *HistSample {
	hs := &HistSample{
		Count:  snap.Count,
		SumNs:  snap.SumNs,
		MaxNs:  snap.MaxNs,
		MeanNs: snap.MeanNs(),
		P50Ns:  snap.Quantile(0.50),
		P95Ns:  snap.Quantile(0.95),
		P99Ns:  snap.Quantile(0.99),
	}
	for i, n := range snap.Buckets {
		if n != 0 {
			hs.Buckets = append(hs.Buckets, HistBucket{UpperNs: perf.BucketUpperNs(i), Count: n})
		}
	}
	return hs
}

// Value looks up the current scalar value of a counter or gauge series.
// The second return is false if the series does not exist or is a
// histogram.
func (r *Registry) Value(name string, labels ...Label) (float64, bool) {
	s, kind, ok := r.lookup(name, labels)
	if !ok || kind == KindHistogram {
		return 0, false
	}
	sm := s.sample(kind)
	return sm.Value, true
}

// HistValue looks up the current snapshot of a histogram series.
func (r *Registry) HistValue(name string, labels ...Label) (perf.HistSnapshot, bool) {
	s, kind, ok := r.lookup(name, labels)
	if !ok || kind != KindHistogram {
		return perf.HistSnapshot{}, false
	}
	return s.histRef.Snapshot(), true
}

func (r *Registry) lookup(name string, labels []Label) (*series, Kind, bool) {
	ls := canonLabels(name, labels)
	key := labelKey(ls)
	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.families[name]
	if f == nil {
		return nil, 0, false
	}
	s := f.series[key]
	if s == nil {
		return nil, 0, false
	}
	return s, f.kind, true
}

// canonLabels validates and returns a key-sorted copy of labels.
func canonLabels(name string, labels []Label) []Label {
	if len(labels) == 0 {
		return nil
	}
	ls := make([]Label, len(labels))
	copy(ls, labels)
	sort.Slice(ls, func(i, j int) bool { return ls[i].Key < ls[j].Key })
	for i, l := range ls {
		if !validLabelKey(l.Key) {
			panic(fmt.Sprintf("obs: metric %q has invalid label key %q", name, l.Key))
		}
		if i > 0 && ls[i-1].Key == l.Key {
			panic(fmt.Sprintf("obs: metric %q repeats label key %q", name, l.Key))
		}
	}
	return ls
}

// labelKey encodes sorted labels canonically; label values are escaped
// so distinct value sets can never collide.
func labelKey(ls []Label) string {
	if len(ls) == 0 {
		return ""
	}
	var b strings.Builder
	for i, l := range ls {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(l.Key)
		b.WriteString(`="`)
		b.WriteString(escapeLabelValue(l.Value))
		b.WriteByte('"')
	}
	return b.String()
}

// validateName enforces the Prometheus metric name charset
// [a-zA-Z_:][a-zA-Z0-9_:]*.
func validateName(name string) {
	if name == "" {
		panic("obs: empty metric name")
	}
	for i := 0; i < len(name); i++ {
		c := name[i]
		ok := c == '_' || c == ':' ||
			(c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
			(i > 0 && c >= '0' && c <= '9')
		if !ok {
			panic(fmt.Sprintf("obs: invalid metric name %q", name))
		}
	}
}

// validLabelKey enforces [a-zA-Z_][a-zA-Z0-9_]*.
func validLabelKey(k string) bool {
	if k == "" {
		return false
	}
	for i := 0; i < len(k); i++ {
		c := k[i]
		ok := c == '_' ||
			(c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
			(i > 0 && c >= '0' && c <= '9')
		if !ok {
			return false
		}
	}
	return true
}
