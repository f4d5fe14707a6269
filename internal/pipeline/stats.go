package pipeline

import (
	"fmt"
	"strings"
	"sync/atomic"

	"repro/internal/perf"
)

// Hist is the shared lock-free power-of-two latency histogram, defined
// in package perf so that servers and load drivers report latency in the
// same buckets as pipeline stages. The alias keeps the historical
// pipeline.Hist name working.
type Hist = perf.Hist

// StageStats aggregates what one stage did across all of its workers.
// All counters are updated atomically by the stage's worker goroutines;
// reading them while the pipeline runs yields a consistent-enough live
// snapshot, and an exact one once Run.Wait has returned.
type StageStats struct {
	Name string

	Frames    atomic.Int64 // frames processed (excluding skipped error frames)
	Codewords atomic.Int64 // codewords processed (>= Frames when frames are batched)
	Errors    atomic.Int64 // frames this stage failed
	BytesIn   atomic.Int64 // payload bytes entering the stage
	BytesOut  atomic.Int64 // payload bytes leaving the stage
	Corrected atomic.Int64 // symbol/bit errors corrected (decode stages)

	Latency Hist // wall-clock Process latency per frame
	// QueueWait is the time each frame sat ready but unserved before a
	// worker of this stage took it: from submission (first stage) or the
	// previous stage's return, including any blocked downstream put.
	QueueWait Hist
}

// SinkStats counts what left the pipeline, folded at delivery.
// Frames are engine frames (one per Submit); Codewords unpacks batching
// (a frame carrying a 16-codeword payload counts 16), so failure rates
// stay comparable across batch settings — a failed batched frame charges
// its full width, never 1.
type SinkStats struct {
	Frames          atomic.Int64 // frames delivered (with or without Err)
	Codewords       atomic.Int64 // codewords delivered
	Failed          atomic.Int64 // frames delivered with Err set
	FailedCodewords atomic.Int64 // codewords in frames delivered with Err set
}

// String formats one report row.
func (s *StageStats) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-22s frames=%-8d err=%-6d in=%s out=%s",
		s.Name, s.Frames.Load(), s.Errors.Load(),
		fmtBytes(s.BytesIn.Load()), fmtBytes(s.BytesOut.Load()))
	if cw := s.Codewords.Load(); cw > s.Frames.Load() {
		fmt.Fprintf(&b, " cw=%d", cw)
	}
	if c := s.Corrected.Load(); c > 0 {
		fmt.Fprintf(&b, " corrected=%d", c)
	}
	fmt.Fprintf(&b, " lat[%s]", s.Latency.String())
	return b.String()
}

func fmtBytes(n int64) string {
	switch {
	case n >= 1<<30:
		return fmt.Sprintf("%.2fGiB", float64(n)/(1<<30))
	case n >= 1<<20:
		return fmt.Sprintf("%.2fMiB", float64(n)/(1<<20))
	case n >= 1<<10:
		return fmt.Sprintf("%.2fKiB", float64(n)/(1<<10))
	default:
		return fmt.Sprintf("%dB", n)
	}
}
