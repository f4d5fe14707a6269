package pipeline

import (
	"strings"
	"testing"
	"time"

	"repro/internal/obs"
)

// twoStagePipeline is a doubling stage followed by a 50µs sleep.
func twoStagePipeline(t testing.TB) *Pipeline {
	t.Helper()
	p, err := New(Config{Workers: 2, Queue: 4},
		Func{Label: "double", F: func(f *Frame) error {
			for i := range f.Data {
				f.Data[i] *= 2
			}
			return nil
		}},
		Func{Label: "sleepy", F: func(f *Frame) error {
			time.Sleep(50 * time.Microsecond)
			return nil
		}},
	)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// TestQueueWaitEveryFrame: every frame is measured at every stage, so
// each stage's queue-wait and latency histograms hold exactly one
// sample per frame, and the sleepy stage's latency shows the sleep.
func TestQueueWaitEveryFrame(t *testing.T) {
	const frames = 40
	p := twoStagePipeline(t)
	payloads := make([][]byte, frames)
	for i := range payloads {
		payloads[i] = []byte{1, 2, 3}
	}
	if _, err := p.Drain(payloads); err != nil {
		t.Fatal(err)
	}
	for _, st := range p.Stats() {
		if got := st.QueueWait.Count(); got != frames {
			t.Errorf("stage %s queue-wait samples = %d, want %d", st.Name, got, frames)
		}
		if got := st.Latency.Count(); got != frames {
			t.Errorf("stage %s latency samples = %d, want %d", st.Name, got, frames)
		}
	}
	if mean := p.Stats()[1].Latency.Mean(); mean < 50*time.Microsecond {
		t.Errorf("sleepy stage mean latency %v, want >= 50us", mean)
	}
	if got := p.Total.Count(); got != frames {
		t.Errorf("total latency samples = %d, want %d", got, frames)
	}
}

// TestPipelineRegisterMetrics wires a pipeline into a registry and
// checks the instrument families and read-through values.
func TestPipelineRegisterMetrics(t *testing.T) {
	const frames = 20
	p := twoStagePipeline(t)
	reg := obs.NewRegistry()
	p.RegisterMetrics(reg)
	RegisterGFKernelMetrics(reg)

	payloads := make([][]byte, frames)
	for i := range payloads {
		payloads[i] = []byte{9, 9}
	}
	if _, err := p.Drain(payloads); err != nil {
		t.Fatal(err)
	}

	if v, ok := reg.Value("gfp_pipeline_stage_frames_total", obs.L("stage", "double")); !ok || v != frames {
		t.Errorf("stage frames metric = %g,%v, want %d", v, ok, frames)
	}
	if v, ok := reg.Value("gfp_pipeline_stage_bytes_in_total", obs.L("stage", "sleepy")); !ok || v != frames*2 {
		t.Errorf("bytes_in metric = %g,%v, want %d", v, ok, frames*2)
	}
	if s, ok := reg.HistValue("gfp_pipeline_stage_queue_wait_seconds", obs.L("stage", "double")); !ok || s.Count != frames {
		t.Errorf("queue-wait hist = %+v,%v, want count %d", s, ok, frames)
	}
	if s, ok := reg.HistValue("gfp_pipeline_latency_seconds"); !ok || s.Count != frames {
		t.Errorf("total latency hist count = %d,%v, want %d", s.Count, ok, frames)
	}
	if _, ok := reg.Value("gfp_gf_kernel_calls_total", obs.L("tier", "table")); !ok {
		t.Error("kernel tier metric missing")
	}

	var sb strings.Builder
	if err := reg.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		`gfp_pipeline_stage_frames_total{stage="double"}`,
		`gfp_pipeline_stage_queue_wait_seconds_bucket{stage="sleepy",le=`,
		`gfp_gf_kernel_calls_total{tier="scalar"}`,
	} {
		if !strings.Contains(sb.String(), want) {
			t.Errorf("exposition missing %q", want)
		}
	}
}

// TestRegisterMetricsDuplicateStageNames: two stages with the same name
// must not collide in the registry.
func TestRegisterMetricsDuplicateStageNames(t *testing.T) {
	nop := func(f *Frame) error { return nil }
	p := Must(Config{Workers: 1}, Func{Label: "nop", F: nop}, Func{Label: "nop", F: nop})
	reg := obs.NewRegistry()
	p.RegisterMetrics(reg) // must not panic
	if _, ok := reg.Value("gfp_pipeline_stage_frames_total", obs.L("stage", "nop")); !ok {
		t.Error("first nop stage missing")
	}
	if _, ok := reg.Value("gfp_pipeline_stage_frames_total", obs.L("stage", "nop#1")); !ok {
		t.Error("second nop stage not disambiguated")
	}
}
