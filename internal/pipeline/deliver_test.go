package pipeline

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"

	"repro/internal/gf"
	"repro/internal/rs"
)

// TestStartCompletionOrder: a run hands each frame to the deliver func
// as soon as its stage returns. Frame 0 blocks its worker until the
// next four frames have been delivered through the other one, which a
// sink releasing frames in Seq order could never do. Stage errors are
// delivered and counted, and Wait returns after Close.
func TestStartCompletionOrder(t *testing.T) {
	const frames = 5
	release := make(chan struct{})
	boom := errors.New("odd byte")
	p := Must(Config{Workers: 2, Queue: 8}, Func{Label: "gate", F: func(f *Frame) error {
		if f.Seq == 0 {
			select {
			case <-release:
			case <-time.After(5 * time.Second):
			}
		}
		if f.Data[0]%2 == 1 {
			return boom
		}
		return nil
	}})
	var mu sync.Mutex
	var order []uint64
	r := p.Start(func(f *Frame) {
		mu.Lock()
		order = append(order, f.Seq)
		if len(order) == frames-1 {
			close(release)
		}
		mu.Unlock()
		if f.Latency <= 0 {
			t.Errorf("frame %d delivered with Latency %v", f.Seq, f.Latency)
		}
		if (f.Err != nil) != (f.Data[0]%2 == 1) {
			t.Errorf("frame %d: Err %v for byte %d", f.Seq, f.Err, f.Data[0])
		}
		f.Free()
	})
	for i := 0; i < frames; i++ {
		r.Submit([]byte{byte(i)})
	}
	r.Close()
	r.Wait()
	if len(order) != frames || order[frames-1] != 0 {
		t.Fatalf("delivery order %v, want frame 0 last", order)
	}
	if got := p.Sink.Frames.Load(); got != frames {
		t.Errorf("Sink.Frames = %d, want %d", got, frames)
	}
	if got := p.Sink.Failed.Load(); got != 2 {
		t.Errorf("Sink.Failed = %d, want 2", got)
	}
	if got := p.Total.Count(); got != frames {
		t.Errorf("Total samples = %d, want %d", got, frames)
	}
}

// TestSubmitDeliverFuncZeroAlloc is TestSubmitDeliverZeroAlloc for a
// deliver func that only hands the frame on, as gfserved's does: another
// goroutine checks and frees it, and four frames are in flight at once,
// so the encode stage can take several per dequeue while the last stage
// takes one. Once the pools are warm a window of four frames allocates
// nothing.
func TestSubmitDeliverFuncZeroAlloc(t *testing.T) {
	const window = 4
	c := rs.Must(gf.MustDefault(8), 255, 223)
	e, d := rsStages(t, c, 1)
	delivered := make(chan *Frame, window)
	r := Must(Config{Workers: 1, Queue: window}, e, d).Start(func(f *Frame) { delivered <- f })
	payload := make([]byte, c.K)
	rand.New(rand.NewSource(7)).Read(payload)
	run := func() {
		for i := 0; i < window; i++ {
			r.Submit(payload)
		}
		for i := 0; i < window; i++ {
			f := <-delivered
			ok := f.Err == nil && bytes.Equal(f.Data, payload)
			f.Free()
			if !ok {
				t.Fatal("frame failed or came back altered")
			}
		}
	}
	for i := 0; i < 8; i++ {
		run() // warm frame pool, payload pool and codec scratch
	}
	if raceEnabled {
		r.Close()
		t.Skip("alloc counting is unreliable under -race (pool randomization)")
	}
	avg := testing.AllocsPerRun(200, run)
	r.Close()
	r.Wait()
	if avg >= 0.5 {
		t.Fatalf("steady-state submit->deliver allocates %.2f times per window of %d frames, want 0", avg, window)
	}
}

// TestFailedBatchedFrameChargesWidth: a batched frame that fails in a
// stage after the codec stage set its width charges that full width to
// Sink.FailedCodewords, not 1. Frames of 4, 3 and 2 codewords go
// through an RS encode; a later stage fails every frame wider than 2.
func TestFailedBatchedFrameChargesWidth(t *testing.T) {
	c := rs.Must(gf.MustDefault(8), 255, 239)
	enc, _ := rsStages(t, c, 1)
	failWide := Func{Label: "fail-wide", F: func(f *Frame) error {
		if f.Width > 2 {
			return fmt.Errorf("width %d", f.Width)
		}
		return nil
	}}
	p := Must(Config{Workers: 2, Queue: 4}, enc, failWide)
	frames, err := p.Drain([][]byte{make([]byte, 4*c.K), make([]byte, 3*c.K), make([]byte, 2*c.K)})
	if err == nil {
		t.Fatal("Drain reported no failure")
	}
	for i, want := range []bool{true, true, false} {
		if got := frames[i].Err != nil; got != want {
			t.Errorf("frame %d (width %d) failed = %v, want %v", i, frames[i].Width, got, want)
		}
	}
	sink := &p.Sink
	if got := sink.Frames.Load(); got != 3 {
		t.Errorf("Sink.Frames = %d, want 3", got)
	}
	if got := sink.Codewords.Load(); got != 9 {
		t.Errorf("Sink.Codewords = %d, want 9", got)
	}
	if got := sink.Failed.Load(); got != 2 {
		t.Errorf("Sink.Failed = %d, want 2", got)
	}
	if got := sink.FailedCodewords.Load(); got != 7 {
		t.Errorf("Sink.FailedCodewords = %d, want 7 (full width per failed frame)", got)
	}
}
