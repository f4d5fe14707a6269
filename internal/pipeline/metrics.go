package pipeline

import (
	"fmt"

	"repro/internal/gf"
	"repro/internal/obs"
)

// RegisterMetrics registers every stage's live stats with reg as
// read-through instruments under the gfp_pipeline_* names. Call once
// per pipeline per registry; stages sharing a name are disambiguated
// with a "#index" suffix on the stage label.
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
