package adaptive

import (
	"fmt"
	"sync/atomic"

	"repro/internal/pipeline"
)

// EpochStats aggregates one epoch's outcomes for the link report.
type EpochStats struct {
	Epoch int
	Rung  int
	// FirstSeq/LastSeq bound the epoch's frames (inclusive).
	FirstSeq, LastSeq uint64
	Frames            int
	Failed            int
	Corrected         int
	// PayloadBytes counts message bytes of successfully decoded frames;
	// ChannelBytes counts the coded bytes all the epoch's frames put on
	// the wire. PayloadBytes/ChannelBytes is the epoch's goodput as a
	// fraction of channel capacity (code rate x delivery ratio).
	PayloadBytes, ChannelBytes int64
}

// Goodput returns delivered payload bytes per channel byte.
func (e EpochStats) Goodput() float64 {
	if e.ChannelBytes == 0 {
		return 0
	}
	return float64(e.PayloadBytes) / float64(e.ChannelBytes)
}

// FailureRate returns the epoch's residual frame-failure rate.
func (e EpochStats) FailureRate() float64 {
	if e.Frames == 0 {
		return 0
	}
	return float64(e.Failed) / float64(e.Frames)
}

// Driver runs the closed loop over a pipeline: it submits frames tagged
// with the controller's current epoch (payload sized to that epoch's
// code), consumes decoded frames in Seq order, and feeds each outcome
// back to the controller.
//
// Submission never runs more than the window ahead of consumed feedback.
// That bounds the controller's reaction lag. The pipeline delivers in
// completion order; the driver parks early finishers in a window-sized
// slot array and consumes them in Seq order, which makes the rate
// trajectory a pure function of payloads, channel schedule and
// controller config, independent of worker count and goroutine
// scheduling. The window is clamped to the pipeline's queue depth,
// which also guarantees Submit can never block with undelivered frames
// stuck behind it (no deadlock).
type Driver struct {
	Ctrl *Controller
	// Window is the max frames in flight; <= 0 or > queue depth means
	// the pipeline's queue depth.
	Window int
	// Payload generates frame seq's message of exactly size bytes. It is
	// called once per frame, in Seq order, from the driver goroutine.
	Payload func(seq uint64, size int) []byte
	// OnFrame, when set, observes every delivered frame (in Seq order,
	// from the driver goroutine) after the controller has seen its
	// feedback — the hook for round-trip verification and reporting.
	OnFrame func(f *pipeline.Frame)

	// Running link totals, updated atomically by account so metrics can
	// read them while Run is live.
	delivered    atomic.Int64
	failed       atomic.Int64
	payloadBytes atomic.Int64
	channelBytes atomic.Int64
}

// Run pushes `frames` frames through the pipeline's closed loop and
// returns the per-epoch statistics, indexed by epoch id. The pipeline
// must consist of stages built around d.Ctrl (EncodeStage/DecodeStage
// plus any channel stage between them).
func (d *Driver) Run(pl *pipeline.Pipeline, frames int) ([]EpochStats, error) {
	if frames < 1 {
		return nil, fmt.Errorf("adaptive: need at least one frame")
	}
	if d.Ctrl == nil || d.Payload == nil {
		return nil, fmt.Errorf("adaptive: driver needs Ctrl and Payload")
	}
	window := d.Window
	if q := pl.Config().Queue; window <= 0 || window > q {
		window = q
	}

	// At most window frames are in flight, so the buffered send never
	// blocks a worker, and their Seqs map to distinct slots.
	finished := make(chan *pipeline.Frame, window)
	run := pl.Start(func(f *pipeline.Frame) { finished <- f })
	slots := make([]*pipeline.Frame, window)
	var epochs []EpochStats
	submitted, consumed := 0, 0
	for consumed < frames {
		for submitted < frames && submitted-consumed < window {
			epoch := d.Ctrl.CurrentEpoch()
			rung, err := d.Ctrl.RungFor(epoch)
			if err != nil {
				return epochs, err
			}
			run.SubmitTagged(d.Payload(uint64(submitted), rung.IV.FrameK()), epoch)
			submitted++
			if submitted == frames {
				run.Close()
			}
		}
		slot := consumed % window
		for slots[slot] == nil {
			f := <-finished
			slots[f.Seq%uint64(window)] = f
		}
		f := slots[slot]
		slots[slot] = nil
		d.Ctrl.Observe(Feedback{
			Seq: f.Seq, Epoch: f.Epoch, Failed: f.Err != nil, CorrectedMax: f.CorrectedMax,
		})
		epochs = d.account(epochs, f)
		if d.OnFrame != nil {
			d.OnFrame(f)
		}
		consumed++
	}
	run.Wait()
	return epochs, nil
}

// account folds one delivered frame into its epoch's stats.
func (d *Driver) account(epochs []EpochStats, f *pipeline.Frame) []EpochStats {
	for len(epochs) <= f.Epoch {
		e := len(epochs)
		epochs = append(epochs, EpochStats{Epoch: e, Rung: d.Ctrl.RungIndexFor(e)})
	}
	st := &epochs[f.Epoch]
	if st.Frames == 0 || f.Seq < st.FirstSeq {
		st.FirstSeq = f.Seq
	}
	if f.Seq > st.LastSeq {
		st.LastSeq = f.Seq
	}
	st.Frames++
	st.Corrected += f.Corrected
	rung := d.Ctrl.Ladder().Rung(st.Rung)
	st.ChannelBytes += int64(rung.IV.FrameN())
	d.delivered.Add(1)
	d.channelBytes.Add(int64(rung.IV.FrameN()))
	if f.Err != nil {
		st.Failed++
		d.failed.Add(1)
	} else {
		st.PayloadBytes += int64(rung.IV.FrameK())
		d.payloadBytes.Add(int64(rung.IV.FrameK()))
	}
	return epochs
}
