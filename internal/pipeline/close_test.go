package pipeline

import (
	"errors"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
)

func idStage() Func {
	return Func{Label: "id", F: func(f *Frame) error { return nil }}
}

// discard is a deliver func that drops every frame.
func discard(*Frame) {}

// TestNewRejectsBadConfig: negative sizes are rejected in New, not
// deferred to a misbehaving run.
func TestNewRejectsBadConfig(t *testing.T) {
	if _, err := New(Config{Workers: -1}, idStage()); err == nil {
		t.Error("New accepted Workers=-1")
	}
	if _, err := New(Config{Queue: -3}, idStage()); err == nil {
		t.Error("New accepted Queue=-3")
	}
	if _, err := New(Config{}); err == nil {
		t.Error("New accepted zero stages")
	}
	if _, err := New(Config{}, nil); err == nil {
		t.Error("New accepted a nil stage")
	}
	// Zero still means "default", not an error.
	p, err := New(Config{}, idStage())
	if err != nil {
		t.Fatalf("New with zero config: %v", err)
	}
	if c := p.Config(); c.Workers <= 0 || c.Queue <= 0 {
		t.Errorf("defaults not applied: %+v", c)
	}
}

// TestCloseIdempotent: double Close must be a no-op, not a panic.
func TestCloseIdempotent(t *testing.T) {
	r := Must(Config{Workers: 1}, idStage()).Start(discard)
	r.Close()
	r.Close()
	r.Wait()
}

// TestSubmitCheckedAfterClose returns ErrClosed, and SubmitTagged
// panics with it.
func TestSubmitCheckedAfterClose(t *testing.T) {
	r := Must(Config{Workers: 1}, idStage()).Start(discard)
	r.Close()
	if _, err := r.SubmitChecked([]byte{1}, 0, nil); !errors.Is(err, ErrClosed) {
		t.Fatalf("SubmitChecked after Close = %v, want ErrClosed", err)
	}
	defer func() {
		if recover() == nil {
			t.Error("SubmitTagged after Close did not panic")
		}
	}()
	r.SubmitTagged([]byte{1}, 0)
}

// TestSubmitCheckedRacesClose hammers SubmitChecked from many
// goroutines while Close lands in the middle: every accepted frame must
// be delivered exactly once, every rejection must be ErrClosed, and
// nothing may panic. Run under -race this is the server-shutdown drain
// guarantee.
func TestSubmitCheckedRacesClose(t *testing.T) {
	const submitters = 8
	const perSubmitter = 200
	var delivered atomic.Int64
	r := Must(Config{Workers: 2, Queue: 4}, idStage()).Start(func(*Frame) { delivered.Add(1) })

	var accepted, rejected int64
	var mu sync.Mutex
	var wg sync.WaitGroup
	start := make(chan struct{})
	for s := 0; s < submitters; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			<-start
			for i := 0; i < perSubmitter; i++ {
				_, err := r.SubmitChecked([]byte(strconv.Itoa(s)), 0, nil)
				mu.Lock()
				if err == nil {
					accepted++
				} else if errors.Is(err, ErrClosed) {
					rejected++
				} else {
					t.Errorf("unexpected error: %v", err)
				}
				mu.Unlock()
			}
		}(s)
	}

	close(start)
	// Let some submissions through, then close concurrently.
	r.Close()
	wg.Wait()
	r.Wait()

	if got := delivered.Load(); got != accepted {
		t.Fatalf("delivered %d frames, accepted %d", got, accepted)
	}
	if accepted+rejected != submitters*perSubmitter {
		t.Fatalf("accepted %d + rejected %d != %d", accepted, rejected, submitters*perSubmitter)
	}
}

// TestRunClosed pins the Closed() accessor.
func TestRunClosed(t *testing.T) {
	p := Must(Config{Workers: 1}, Func{Label: "nop", F: func(f *Frame) error { return nil }})
	run := p.Start(discard)
	if run.Closed() {
		t.Error("fresh run reports closed")
	}
	run.Close()
	if !run.Closed() {
		t.Error("closed run reports open")
	}
	run.Wait()
}
