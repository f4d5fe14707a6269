package pipeline

import "sync"

// stageRun is the largest run of frames a stage worker dequeues (and
// re-enqueues downstream) per ring synchronization. Under load a worker
// pays one lock round-trip per run instead of per frame; under light
// load getSome returns whatever is queued, so latency is unaffected.
const stageRun = 8

// frameSink is the downstream end of a stage's handoff: the next stage's
// input ring, or the run's deliver sink after the last stage.
type frameSink interface {
	// putAll enqueues every frame, blocking on backpressure.
	putAll(fs []*Frame)
	// close marks the producer side done. Called exactly once, after
	// every producer has returned.
	close()
}

// frameRing is the slab handoff between stages: a bounded ring of frame
// pointers guarded by one mutex with bulk enqueue/dequeue, replacing the
// per-frame channel send of the original engine. Producers block while
// the ring is full (backpressure), consumers while it is empty; close
// wakes everyone and lets consumers drain the remainder.
type frameRing struct {
	mu       sync.Mutex
	notEmpty sync.Cond
	notFull  sync.Cond
	buf      []*Frame
	head     int // next dequeue slot
	n        int // occupied slots
	closed   bool
}

func newFrameRing(capacity int) *frameRing {
	if capacity < 1 {
		capacity = 1
	}
	r := &frameRing{buf: make([]*Frame, capacity)}
	r.notEmpty.L = &r.mu
	r.notFull.L = &r.mu
	return r
}

// put enqueues one frame, blocking while the ring is full. Calling put
// after close is a produce-after-close bug and panics.
func (r *frameRing) put(f *Frame) {
	r.mu.Lock()
	for r.n == len(r.buf) && !r.closed {
		r.notFull.Wait()
	}
	if r.closed {
		r.mu.Unlock()
		panic("pipeline: put on closed ring")
	}
	r.buf[(r.head+r.n)%len(r.buf)] = f
	r.n++
	r.mu.Unlock()
	r.notEmpty.Signal()
}

// putAll enqueues every frame in order, blocking as needed. One lock
// round-trip moves up to a full ring of frames.
func (r *frameRing) putAll(fs []*Frame) {
	for len(fs) > 0 {
		r.mu.Lock()
		for r.n == len(r.buf) && !r.closed {
			r.notFull.Wait()
		}
		if r.closed {
			r.mu.Unlock()
			panic("pipeline: putAll on closed ring")
		}
		k := len(r.buf) - r.n
		if k > len(fs) {
			k = len(fs)
		}
		for i := 0; i < k; i++ {
			r.buf[(r.head+r.n+i)%len(r.buf)] = fs[i]
		}
		r.n += k
		r.mu.Unlock()
		if k == 1 {
			r.notEmpty.Signal()
		} else {
			r.notEmpty.Broadcast()
		}
		fs = fs[k:]
	}
}

// getSome dequeues up to len(dst) frames, blocking while the ring is
// empty and open. It returns 0 only once the ring is closed and fully
// drained — the consumer's termination signal.
func (r *frameRing) getSome(dst []*Frame) int {
	r.mu.Lock()
	for r.n == 0 && !r.closed {
		r.notEmpty.Wait()
	}
	k := r.n
	if k > len(dst) {
		k = len(dst)
	}
	for i := 0; i < k; i++ {
		dst[i] = r.buf[r.head]
		r.buf[r.head] = nil
		r.head++
		if r.head == len(r.buf) {
			r.head = 0
		}
	}
	r.n -= k
	r.mu.Unlock()
	if k > 0 {
		r.notFull.Broadcast()
	}
	return k
}

func (r *frameRing) close() {
	r.mu.Lock()
	r.closed = true
	r.mu.Unlock()
	r.notEmpty.Broadcast()
	r.notFull.Broadcast()
}
