package cluster

import (
	"runtime"
	"runtime/metrics"
	"testing"

	"repro/internal/server"
)

// liveHeap returns the live heap after a full collection.
func liveHeap() uint64 {
	runtime.GC()
	runtime.GC()
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// TestForwardTimerNotRetained: a forward that finishes well inside
// ForwardTimeout must not leave its timeout timer behind. The module
// declares go 1.22, so an unstopped time.After timer stays live until
// it fires (30 s by default) and each forward pinned about 270 bytes.
func TestForwardTimerNotRetained(t *testing.T) {
	const forwards = 10000
	be := startFake(t, func(m *server.Message) (*server.Message, bool) {
		return &server.Message{Op: m.Op, Payload: m.Payload}, true
	})
	p, addr := startProxy(t, Config{
		Backends:       []BackendSpec{{Addr: be.addr()}},
		RouteByRequest: true,
	})
	c := dialProxy(t, addr)
	msg := make([]byte, 239)
	call := func() {
		if _, err := c.Call(server.OpRSEncode, nil, msg); err != nil {
			t.Fatalf("forward: %v", err)
		}
	}
	// Warm the connection pools and buffers before the baseline.
	for i := 0; i < 100; i++ {
		call()
	}
	before := liveHeap()
	for i := 0; i < forwards; i++ {
		call()
	}
	after := liveHeap()
	growth := int64(after) - int64(before)
	t.Logf("live heap %d -> %d bytes (%+d) over %d forwards", before, after, growth, forwards)
	if growth > 1<<20 {
		t.Errorf("live heap grew %d bytes over %d forwards (%d B each): forward timers are retained",
			growth, forwards, growth/forwards)
	}
	checkLedger(t, p)
}
