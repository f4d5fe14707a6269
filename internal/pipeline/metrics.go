package pipeline

import (
	"fmt"

	"repro/internal/gf"
	"repro/internal/obs"
	"repro/internal/perf"
)

// RegisterMetrics registers every stage's live stats with reg as
// read-through instruments under the gfp_pipeline_* and gfp_model_*
// names, plus the tracer's queue-wait/service histograms when tracing
// is enabled. Call once per pipeline per registry; stages sharing a
// name are disambiguated with a "#index" suffix on the stage label.
func (p *Pipeline) RegisterMetrics(reg *obs.Registry) {
	seen := make(map[string]bool)
	labels := make([]obs.Label, len(p.stats))
	for i, st := range p.stats {
		name := st.Name
		if seen[name] {
			name = fmt.Sprintf("%s#%d", name, i)
		}
		seen[st.Name] = true
		labels[i] = obs.L("stage", name)
	}

	for i, st := range p.stats {
		st := st
		l := labels[i]
		reg.CounterFunc("gfp_pipeline_stage_frames_total",
			"Frames processed by the stage (error-skipped frames excluded).",
			st.Frames.Load, l)
		reg.CounterFunc("gfp_pipeline_stage_codewords_total",
			"Codewords processed by the stage (>= frames when frames are batched).",
			st.Codewords.Load, l)
		reg.CounterFunc("gfp_pipeline_stage_errors_total",
			"Frames the stage failed.", st.Errors.Load, l)
		reg.CounterFunc("gfp_pipeline_stage_bytes_in_total",
			"Payload bytes entering the stage.", st.BytesIn.Load, l)
		reg.CounterFunc("gfp_pipeline_stage_bytes_out_total",
			"Payload bytes leaving the stage.", st.BytesOut.Load, l)
		reg.CounterFunc("gfp_pipeline_stage_corrected_total",
			"Symbol/bit errors corrected by the stage (decode stages).",
			st.Corrected.Load, l)
		reg.HistogramFunc("gfp_pipeline_stage_latency_seconds",
			"Wall-clock Process latency per frame.", &st.Latency, l)

		// Cycle-model accounting from metered stages: per-class op totals
		// and their price on the paper's GF-processor timing — the
		// software analogue of the paper's Table 5 per-kernel counts.
		for _, cl := range []struct {
			class string
			fn    func(perf.Counts) int64
		}{
			{"ld", func(c perf.Counts) int64 { return c.LD }},
			{"st", func(c perf.Counts) int64 { return c.ST }},
			{"alu", func(c perf.Counts) int64 { return c.ALU }},
			{"mul", func(c perf.Counts) int64 { return c.Mul }},
			{"branch", func(c perf.Counts) int64 { return c.Branch }},
			{"branch_nt", func(c perf.Counts) int64 { return c.BranchNT }},
			{"gf_op", func(c perf.Counts) int64 { return c.GFOp }},
			{"gf32", func(c perf.Counts) int64 { return c.GF32 }},
		} {
			fn := cl.fn
			reg.CounterFunc("gfp_model_ops_total",
				"Modeled operations executed by metered stages, by instruction class.",
				func() int64 { return fn(st.Counts()) }, l, obs.L("class", cl.class))
		}
		gfProf := perf.GFProcessor()
		reg.CounterFunc("gfp_model_cycles_total",
			"Modeled cycles of metered stages priced on the paper's GF-processor timing.",
			func() int64 { return st.Counts().Cycles(gfProf) },
			l, obs.L("machine", "gfproc"))
	}

	reg.HistogramFunc("gfp_pipeline_latency_seconds",
		"End-to-end submit-to-delivery frame latency.", &p.Total)

	reg.CounterFunc("gfp_pipeline_delivered_frames_total",
		"Frames delivered by the reorder sink (with or without error).",
		p.Sink.Frames.Load)
	reg.CounterFunc("gfp_pipeline_delivered_codewords_total",
		"Codewords delivered by the reorder sink (batch-aware frame widths).",
		p.Sink.Codewords.Load)
	reg.CounterFunc("gfp_pipeline_failed_frames_total",
		"Frames delivered with an error set.", p.Sink.Failed.Load)
	reg.CounterFunc("gfp_pipeline_failed_codewords_total",
		"Codewords in frames delivered with an error set (a failed batched frame charges its full width).",
		p.Sink.FailedCodewords.Load)

	if t := p.tracer; t != nil {
		for i := range p.stats {
			reg.HistogramFunc("gfp_pipeline_stage_queue_wait_seconds",
				"Sampled time frames spent ready-but-unserved before the stage.",
				t.QueueWait(i), labels[i])
			reg.HistogramFunc("gfp_pipeline_stage_service_seconds",
				"Sampled stage Process time from lifecycle traces.",
				t.Service(i), labels[i])
		}
		reg.CounterFunc("gfp_pipeline_traced_frames_total",
			"Sampled frame lifecycles completed.", t.Traced)
		reg.GaugeFunc("gfp_pipeline_trace_sample_every",
			"Trace sampling period (1 = every frame).",
			func() float64 { return float64(t.SampleEvery()) })
	}
}

// RegisterGFKernelMetrics registers the process-wide gf bulk-kernel
// tier counters — one series per tier (scalar, table), labeled with
// the tier's name — plus the active kernel-tier override as a gauge.
// Call at most once per registry.
func RegisterGFKernelMetrics(reg *obs.Registry) {
	for i, tier := range gf.TierNames() {
		id := i
		reg.CounterFunc("gfp_gf_kernel_calls_total",
			"Bulk GF kernel invocations by implementation tier.",
			func() int64 { return gf.KernelCalls()[id] }, obs.L("tier", tier))
	}
	reg.GaugeFunc("gfp_gf_kernel_tier_forced",
		"Process-wide forced kernel tier as a TierID (0 = scalar, 1 = table, -1 = auto).",
		func() float64 {
			if t := gf.ForcedKernelTier(); t != gf.TierAuto {
				return float64(t)
			}
			return -1
		})
}
