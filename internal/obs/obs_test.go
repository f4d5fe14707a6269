package obs

import (
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/perf"
)

func TestRegistrationPanics(t *testing.T) {
	cases := []struct {
		name string
		fn   func(r *Registry)
	}{
		{"kind mismatch", func(r *Registry) {
			r.CounterFunc("m_total", "m", zero, L("k", "1"))
			r.GaugeFunc("m_total", "m", func() float64 { return 0 }, L("k", "2"))
		}},
		{"help mismatch", func(r *Registry) {
			r.CounterFunc("m_total", "m", zero, L("k", "1"))
			r.CounterFunc("m_total", "other help", zero, L("k", "2"))
		}},
		{"bad name", func(r *Registry) { r.CounterFunc("bad-name", "x", zero) }},
		{"leading digit", func(r *Registry) { r.CounterFunc("1bad", "x", zero) }},
		{"empty name", func(r *Registry) { r.CounterFunc("", "x", zero) }},
		{"bad label key", func(r *Registry) { r.CounterFunc("m_total", "m", zero, L("bad-key", "v")) }},
		{"dup label key", func(r *Registry) { r.CounterFunc("m_total", "m", zero, L("k", "1"), L("k", "2")) }},
		{"dup func series", func(r *Registry) {
			r.CounterFunc("f_total", "f", func() int64 { return 0 })
			r.CounterFunc("f_total", "f", func() int64 { return 1 })
		}},
		{"func over instrument", func(r *Registry) {
			// A plain histogram over one carrying an exemplar slot would
			// silently drop the slot.
			r.HistogramFuncEx("g_seconds", "g", new(perf.Hist), new(Exemplar), L("op", "a"))
			r.HistogramFunc("g_seconds", "g", new(perf.Hist), L("op", "a"))
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: expected panic", tc.name)
				}
			}()
			tc.fn(NewRegistry())
		})
	}
}

func TestGatherStableOrder(t *testing.T) {
	r := NewRegistry()
	r.CounterFunc("zz_total", "z", zero)
	r.CounterFunc("aa_total", "a", zero, L("stage", "rs-decode"))
	r.CounterFunc("aa_total", "a", zero, L("stage", "corrupt"))
	r.GaugeFunc("mm_depth", "m", func() float64 { return 7 })

	first := r.Gather()
	second := r.Gather()
	if len(first) != 3 {
		t.Fatalf("gathered %d families, want 3", len(first))
	}
	wantNames := []string{"aa_total", "mm_depth", "zz_total"}
	for i, m := range first {
		if m.Name != wantNames[i] {
			t.Errorf("family %d = %s, want %s", i, m.Name, wantNames[i])
		}
		if second[i].Name != m.Name || len(second[i].Samples) != len(m.Samples) {
			t.Errorf("gather order not stable at family %d", i)
		}
	}
	// aa_total series sorted by label value: corrupt before rs-decode.
	aa := first[0]
	if aa.Samples[0].Labels[0].Value != "corrupt" || aa.Samples[1].Labels[0].Value != "rs-decode" {
		t.Errorf("series not label-sorted: %+v", aa.Samples)
	}
}

func TestReadThroughCollectors(t *testing.T) {
	r := NewRegistry()
	var backing int64 = 42
	r.CounterFunc("rt_total", "rt", func() int64 { return backing })
	if v, ok := r.Value("rt_total"); !ok || v != 42 {
		t.Errorf("Value = %g,%v, want 42,true", v, ok)
	}
	backing = 99
	if v, _ := r.Value("rt_total"); v != 99 {
		t.Errorf("read-through counter must track backing value, got %g", v)
	}
}

func TestValueLookup(t *testing.T) {
	r := NewRegistry()
	r.CounterFunc("c_total", "c", func() int64 { return 3 }, L("k", "v"))
	var h perf.Hist
	h.Observe(1000)
	r.HistogramFunc("h_seconds", "h", &h)

	if v, ok := r.Value("c_total", L("k", "v")); !ok || v != 3 {
		t.Errorf("Value = %g,%v, want 3,true", v, ok)
	}
	if _, ok := r.Value("c_total", L("k", "missing")); ok {
		t.Error("missing series must report !ok")
	}
	if _, ok := r.Value("absent_total"); ok {
		t.Error("missing family must report !ok")
	}
	if _, ok := r.Value("h_seconds"); ok {
		t.Error("Value on a histogram must report !ok")
	}
	if s, ok := r.HistValue("h_seconds"); !ok || s.Count != 1 {
		t.Errorf("HistValue = %+v,%v, want count 1", s, ok)
	}
	if _, ok := r.HistValue("c_total", L("k", "v")); ok {
		t.Error("HistValue on a counter must report !ok")
	}
}

// TestScrapeUnderLoad hammers the producers behind the instruments from
// many goroutines while another goroutine gathers and writes exposition
// — the scrape-under-load race test; meaningful under -race.
func TestScrapeUnderLoad(t *testing.T) {
	r := NewRegistry()
	const workers = 4
	var (
		ops, depth [workers]atomic.Int64
		lat        perf.Hist
	)
	for w := 0; w < workers; w++ {
		worker := L("worker", string(rune('a'+w)))
		r.CounterFunc("load_ops_total", "ops", ops[w].Load, worker)
		r.GaugeFunc("load_depth", "depth", func() float64 { return float64(depth[w].Load()) }, worker)
	}
	r.HistogramFunc("load_latency_seconds", "lat", &lat)

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		// Count once before the scrape loop starts so the post-quiesce
		// check doesn't depend on goroutine scheduling.
		ops[w].Add(1)
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				ops[w].Add(1)
				depth[w].Store(int64(i))
				lat.Observe(time.Duration(i % 4096))
			}
		}(w)
	}
	for i := 0; i < 50; i++ {
		var sb strings.Builder
		if err := r.WritePrometheus(&sb); err != nil {
			t.Fatalf("WritePrometheus: %v", err)
		}
		if err := r.WriteJSON(&sb); err != nil {
			t.Fatalf("WriteJSON: %v", err)
		}
		_ = r.Gather()
	}
	close(stop)
	wg.Wait()

	// Post-quiesce sanity: every worker's counter made it into a gather.
	var series int
	for _, m := range r.Gather() {
		if m.Name == "load_ops_total" {
			series = len(m.Samples)
			for _, s := range m.Samples {
				if s.Value <= 0 {
					t.Errorf("worker counter %v never incremented", s.Labels)
				}
			}
		}
	}
	if series != workers {
		t.Errorf("gathered %d load_ops_total series, want %d", series, workers)
	}
}

// zero is a counter producer that never counts.
func zero() int64 { return 0 }
