package pipeline

import (
	"fmt"
	"time"
)

// The ordered sink. The last stage's workers put finished frames on one
// ring; the selector folds their delivery stats and restores dense Seq
// order through a power-of-two circular window — O(1) slab-reusing
// insert/release per frame, no map. It never waits on a specific frame:
// it consumes whatever the ring holds and parks out-of-order frames in
// the window, which grows to the in-flight bound and is reused
// thereafter.

// finish folds one frame's submit-to-delivery latency into the
// pipeline's Total histogram. Frames injected past Submit carry no
// submit timestamp and keep Latency 0.
func (r *Run) finish(f *Frame) {
	if !f.submitted.IsZero() {
		f.Latency = time.Since(f.submitted)
		r.p.Total.Observe(f.Latency)
	}
}

// count folds one delivered frame into the Sink counters: its codewords
// too, so a failed batched frame charges its full width, not 1.
func (r *Run) count(f *Frame) {
	cw := int64(f.width())
	sk := &r.p.Sink
	sk.Frames.Add(1)
	sk.Codewords.Add(cw)
	if f.Err != nil {
		sk.Failed.Add(1)
		sk.FailedCodewords.Add(cw)
	}
}

// deliverSink is the completion-order sink of a StartFunc run: the last
// stage's worker folds each frame's delivery stats and hands it to the
// caller as soon as its stage returns.
type deliverSink struct {
	r       *Run
	deliver func(*Frame)
}

func (d deliverSink) putAll(fs []*Frame) {
	for _, f := range fs {
		d.r.finish(f)
		d.r.count(f)
		d.deliver(f)
	}
}

// close runs once every last-stage worker has exited: the run is
// drained.
func (d deliverSink) close() { close(d.r.done) }

// seqWindow buffers out-of-order frames indexed by Seq: a power-of-two
// circular window that grows to the in-flight high-water mark and then
// reuses its slots forever — unlike the map it replaces, steady-state
// insert/release touches one slot and allocates nothing.
type seqWindow struct {
	buf  []*Frame
	base uint64 // seq stored at slot pos
	pos  int    // slot holding seq base
	held int
}

func newSeqWindow() *seqWindow { return &seqWindow{buf: make([]*Frame, 16)} }

// put stores the frame at its Seq (>= base; seqs are unique, so a slot
// is never written twice).
func (w *seqWindow) put(seq uint64, f *Frame) {
	for seq-w.base >= uint64(len(w.buf)) {
		w.grow()
	}
	w.buf[(w.pos+int(seq-w.base))%len(w.buf)] = f
	w.held++
}

func (w *seqWindow) grow() {
	nb := make([]*Frame, 2*len(w.buf))
	for i := 0; i < len(w.buf); i++ {
		nb[i] = w.buf[(w.pos+i)%len(w.buf)]
	}
	w.buf = nb
	w.pos = 0
}

// take removes and returns the frame at seq base, or nil if it has not
// arrived; on success the window advances.
func (w *seqWindow) take() *Frame {
	f := w.buf[w.pos]
	if f == nil {
		return nil
	}
	w.buf[w.pos] = nil
	w.pos = (w.pos + 1) % len(w.buf)
	w.base++
	w.held--
	return f
}

// drain returns every still-held frame in Seq order (the leftover path:
// frames whose predecessors never arrived).
func (w *seqWindow) drain() []*Frame {
	if w.held == 0 {
		return nil
	}
	out := make([]*Frame, 0, w.held)
	for i := 0; i < len(w.buf) && len(out) < cap(out); i++ {
		if f := w.buf[(w.pos+i)%len(w.buf)]; f != nil {
			out = append(out, f)
		}
	}
	return out
}

// selector folds delivery stats and releases frames in dense Seq order
// on r.out. Frames held at close (their predecessors were never
// submitted — only possible for frames injected out of band) are
// delivered in Seq order carrying the out-of-band error.
func (r *Run) selector(src *frameRing) {
	defer close(r.out)
	defer close(r.done)
	w := newSeqWindow()
	run := make([]*Frame, stageRun)
	for {
		n := src.getSome(run)
		if n == 0 {
			break
		}
		for _, f := range run[:n] {
			r.finish(f)
			if f.Seq < w.base {
				// Duplicate of an already-released seq (injected frames
				// only): deliver rather than wedge the window.
				r.emit(f, true)
				continue
			}
			w.put(f.Seq, f)
			for {
				g := w.take()
				if g == nil {
					break
				}
				r.emit(g, false)
			}
		}
		for i := range run[:n] {
			run[i] = nil
		}
	}
	for _, g := range w.drain() {
		r.emit(g, true)
	}
}

// emit counts the frame and delivers it on Out. oob marks out-of-band
// frames, preserving any stage error already on the frame.
func (r *Run) emit(f *Frame, oob bool) {
	if oob && f.Err == nil {
		f.Err = fmt.Errorf("pipeline: frame %d delivered out of band", f.Seq)
		f.FailedAt = "reorder"
	}
	r.count(f)
	r.out <- f
}
