package pipeline

import (
	"errors"
	"math/rand"
	"sync"
	"testing"
	"time"

	"repro/internal/gf"
	"repro/internal/rs"
)

// TestStartFuncCompletionOrder: a StartFunc run hands each frame to the
// deliver func as soon as its stage returns. Frame 0 blocks its worker
// until the next four frames have been delivered through the other one,
// which an ordered sink could never do. Stage errors are delivered and
// counted, Out is closed from the start, and Wait returns after Close.
func TestStartFuncCompletionOrder(t *testing.T) {
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
	r := p.StartFunc(func(f *Frame) {
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
	if _, ok := <-r.Out(); ok {
		t.Fatal("Out of a StartFunc run yielded a frame")
	}
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

// TestSubmitDeliverFuncZeroAlloc is TestSubmitDeliverZeroAlloc for the
// completion-order delivery: Submit, stage workers and the deliver func
// allocate nothing per frame once the pools are warm.
func TestSubmitDeliverFuncZeroAlloc(t *testing.T) {
	c := rs.Must(gf.MustDefault(8), 255, 223)
	e, err := NewRSEncode(c)
	if err != nil {
		t.Fatal(err)
	}
	d, err := NewRSDecode(c)
	if err != nil {
		t.Fatal(err)
	}
	delivered := make(chan bool, 1)
	r := Must(Config{Workers: 1, Queue: 4}, e, d).StartFunc(func(f *Frame) {
		ok := f.Err == nil
		f.Free()
		delivered <- ok
	})
	payload := make([]byte, 4*c.K)
	rand.New(rand.NewSource(7)).Read(payload)
	run := func() {
		r.Submit(payload)
		if !<-delivered {
			t.Fatal("frame failed in pipeline")
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
		t.Fatalf("steady-state submit->deliver allocates %.2f times per frame, want 0", avg)
	}
}
