package obs

import (
	"bytes"
	"math"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/perf"
)

// TestHistSampleSnapshotRoundtrip: exporting a histogram through
// Gather's HistSample and converting back must reproduce the original
// perf.HistSnapshot exactly — the invariant the /statsz fleet fan-in
// depends on.
func TestHistSampleSnapshotRoundtrip(t *testing.T) {
	var h perf.Hist
	for _, d := range []time.Duration{1, 3, 700, 5 * time.Microsecond, 3 * time.Millisecond, 2 * time.Hour} {
		h.Observe(d)
	}
	want := h.Snapshot()
	got := histSample(want).Snapshot()
	if got != want {
		t.Fatalf("roundtrip diverged:\n got %+v\nwant %+v", got, want)
	}
}

func TestBucketIndex(t *testing.T) {
	for i := 0; i < perf.NumBuckets; i++ {
		if got := bucketIndex(perf.BucketUpperNs(i)); got != i {
			t.Errorf("bucketIndex(BucketUpperNs(%d)) = %d", i, got)
		}
	}
	// Junk bounds fold into overflow instead of dropping counts.
	for _, bad := range []int64{0, 1, 3, 1000, math.MaxInt64 - 1} {
		if got := bucketIndex(bad); got != perf.NumBuckets-1 {
			t.Errorf("bucketIndex(%d) = %d, want overflow bucket", bad, got)
		}
	}
}

// TestMergeMetrics: two gathered sets merge into sums for counters and
// gauges and exact bucket unions for histograms — indistinguishable
// from one process having observed everything.
func TestMergeMetrics(t *testing.T) {
	build := func(reqs int64, conns float64, lat []time.Duration) []Metric {
		reg := NewRegistry()
		reg.CounterFunc("requests_total", "Requests.", func() int64 { return reqs })
		reg.CounterFunc("per_op_total", "Per-op.", func() int64 { return reqs * 2 }, L("op", "enc"))
		reg.GaugeFunc("conns_active", "Conns.", func() float64 { return conns })
		h := new(perf.Hist)
		for _, d := range lat {
			h.Observe(d)
		}
		reg.HistogramFunc("latency_seconds", "Latency.", h)
		return reg.Gather()
	}
	a := build(10, 3, []time.Duration{time.Microsecond, time.Millisecond})
	b := build(32, 4, []time.Duration{2 * time.Microsecond, 4 * time.Millisecond, time.Second})

	merged := MergeMetrics(a, b)
	byName := map[string]Metric{}
	for _, m := range merged {
		byName[m.Name] = m
	}
	if v := byName["requests_total"].Samples[0].Value; v != 42 {
		t.Errorf("requests_total = %v, want 42", v)
	}
	if v := byName["per_op_total"].Samples[0].Value; v != 84 {
		t.Errorf("per_op_total{op=enc} = %v, want 84", v)
	}
	if ls := byName["per_op_total"].Samples[0].Labels; len(ls) != 1 || ls[0].Value != "enc" {
		t.Errorf("per_op_total labels = %v", ls)
	}
	if v := byName["conns_active"].Samples[0].Value; v != 7 {
		t.Errorf("conns_active = %v, want 7", v)
	}
	hs := byName["latency_seconds"].Samples[0].Hist
	if hs == nil || hs.Count != 5 {
		t.Fatalf("merged latency hist = %+v, want count 5", hs)
	}
	if hs.MaxNs != int64(time.Second) {
		t.Errorf("merged max = %d, want 1s", hs.MaxNs)
	}
	// Cross-check against a shared histogram observing all five samples.
	var all perf.Hist
	for _, d := range []time.Duration{time.Microsecond, time.Millisecond,
		2 * time.Microsecond, 4 * time.Millisecond, time.Second} {
		all.Observe(d)
	}
	if got, want := hs.Snapshot(), all.Snapshot(); got != want {
		t.Errorf("merged buckets diverge from shared histogram:\n got %+v\nwant %+v", got, want)
	}

	// The merged set must render as well-formed exposition text.
	var buf bytes.Buffer
	if err := WriteMetricsText(&buf, merged); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"requests_total 42",
		`per_op_total{op="enc"} 84`,
		"latency_seconds_count 5",
	} {
		if !strings.Contains(buf.String(), want) {
			t.Errorf("exposition missing %q:\n%s", want, buf.String())
		}
	}
}

// TestMergeMetricsKindConflict: a family redefined with a different kind
// in a later set keeps the first kind and does not panic.
func TestMergeMetricsKindConflict(t *testing.T) {
	ra, rb := NewRegistry(), NewRegistry()
	ra.CounterFunc("x_total", "X.", func() int64 { return 5 })
	rb.GaugeFunc("x_total", "X.", func() float64 { return 100 })
	merged := MergeMetrics(ra.Gather(), rb.Gather())
	if len(merged) != 1 || merged[0].Kind != KindCounter || merged[0].Samples[0].Value != 5 {
		t.Fatalf("conflicting merge = %+v, want counter value 5", merged)
	}
}

// TestAggregateConcurrentSnapshots drives live producer traffic while
// repeatedly gathering and merging the registries — the exact shape of
// the /statsz fan-in, where backends keep serving while the proxy
// scrapes. Meaningful under -race; the final merged totals must equal
// the quiesced sums.
func TestAggregateConcurrentSnapshots(t *testing.T) {
	const workers, perWorker, gathers = 4, 2000, 25
	regs := [2]*Registry{NewRegistry(), NewRegistry()}
	var (
		ctrs  [2]atomic.Int64
		hists [2]perf.Hist
	)
	for i, reg := range regs {
		reg.CounterFunc("requests_total", "Requests.", ctrs[i].Load)
		reg.HistogramFunc("latency_seconds", "Latency.", &hists[i])
	}

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				ctrs[w%2].Add(1)
				hists[w%2].Observe(time.Duration(i) * time.Nanosecond)
			}
		}(w)
	}
	var aggWG sync.WaitGroup
	aggWG.Add(1)
	go func() {
		defer aggWG.Done()
		for i := 0; i < gathers; i++ {
			merged := MergeMetrics(regs[0].Gather(), regs[1].Gather())
			// A mid-flight merge must stay internally consistent: the
			// histogram count equals its bucket sum.
			for _, m := range merged {
				for _, s := range m.Samples {
					if s.Hist == nil {
						continue
					}
					var n int64
					for _, b := range s.Hist.Buckets {
						n += b.Count
					}
					if n != s.Hist.Count {
						panic("merged histogram count != bucket sum")
					}
				}
			}
		}
	}()
	wg.Wait()
	aggWG.Wait()

	merged := MergeMetrics(regs[0].Gather(), regs[1].Gather())
	for _, m := range merged {
		switch m.Name {
		case "requests_total":
			if m.Samples[0].Value != workers*perWorker {
				t.Errorf("merged requests_total = %v, want %d", m.Samples[0].Value, workers*perWorker)
			}
		case "latency_seconds":
			if m.Samples[0].Hist.Count != workers*perWorker {
				t.Errorf("merged latency count = %d, want %d", m.Samples[0].Hist.Count, workers*perWorker)
			}
		}
	}
}
