package pipeline

import (
	"fmt"

	"repro/internal/gf"
	"repro/internal/obs"
	"repro/internal/perf"
)

// RegisterMetrics registers every stage's live stats with reg as
// read-through instruments under the gfp_pipeline_* and gfp_model_*
// names. Call once per pipeline per registry; stages sharing a name are
// disambiguated with a "#index" suffix on the stage label.
func (p *Pipeline) RegisterMetrics(reg *obs.Registry) {
	seen := make(map[string]bool)
	for i, st := range p.stats {
		st := st
		name := st.Name
		if seen[name] {
			name = fmt.Sprintf("%s#%d", name, i)
		}
		seen[st.Name] = true
		l := obs.L("stage", name)
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
		reg.HistogramFunc("gfp_pipeline_stage_queue_wait_seconds",
			"Time frames spent ready-but-unserved before the stage.", &st.QueueWait, l)

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
		"Frames delivered (with or without error).",
		p.Sink.Frames.Load)
	reg.CounterFunc("gfp_pipeline_delivered_codewords_total",
		"Codewords delivered (batch-aware frame widths).",
		p.Sink.Codewords.Load)
	reg.CounterFunc("gfp_pipeline_failed_frames_total",
		"Frames delivered with an error set.", p.Sink.Failed.Load)
	reg.CounterFunc("gfp_pipeline_failed_codewords_total",
		"Codewords in frames delivered with an error set (a failed batched frame charges its full width).",
		p.Sink.FailedCodewords.Load)
}

// RegisterGFKernelMetrics registers the process-wide gf bulk-kernel
// tier counters — one series per tier (scalar, table), labeled with
// the tier's name — plus the scalar kernel force as a gauge. Call at
// most once per registry.
func RegisterGFKernelMetrics(reg *obs.Registry) {
	for i, tier := range gf.TierNames() {
		id := i
		reg.CounterFunc("gfp_gf_kernel_calls_total",
			"Bulk GF kernel invocations by implementation tier.",
			func() int64 { return gf.KernelCalls()[id] }, obs.L("tier", tier))
	}
	reg.GaugeFunc("gfp_gf_kernel_tier_forced",
		"Process-wide kernel force: 0 = scalar (GFP_KERNEL_TIER=scalar), -1 = none (each field's binding).",
		func() float64 {
			if gf.ScalarKernelsForced() {
				return 0
			}
			return -1
		})
}
