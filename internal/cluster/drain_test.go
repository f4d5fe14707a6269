package cluster

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/server"
)

// holdingFake starts a pipelined fake backend that holds the first
// request whose payload starts with 0xee until release is called, and
// echoes every other one. held receives once the request is held.
func holdingFake(t *testing.T, marked *atomic.Bool, held chan<- struct{}, release <-chan struct{}) (string, *atomic.Int32) {
	t.Helper()
	return startPipelinedFake(t, func(m *server.Message) *server.Message {
		if len(m.Payload) > 0 && m.Payload[0] == 0xee && marked.CompareAndSwap(true, false) {
			held <- struct{}{}
			<-release
		}
		return &server.Message{Op: m.Op, Payload: m.Payload}
	})
}

// heldForward sends one marked rs-encode through the proxy at addr and
// waits until a backend holds it; the call's outcome arrives on the
// returned channel.
func heldForward(t *testing.T, addr string, marked *atomic.Bool, held <-chan struct{}) <-chan error {
	t.Helper()
	c := dialProxy(t, addr)
	marked.Store(true)
	done := make(chan error, 1)
	go func() {
		payload := make([]byte, 239)
		payload[0] = 0xee
		_, err := c.RSEncode(payload)
		done <- err
	}()
	select {
	case <-held:
	case <-time.After(5 * time.Second):
		t.Fatal("no backend received the marked request")
	}
	return done
}

// TestProxyShutdownAnswersInFlight: a request the proxy is still
// forwarding when a graceful Shutdown starts is answered before the
// client connection closes, and the ledger shows no drop. The proxy's
// reader used to close the client socket at the drain kick, so the
// reply was lost ("connection lost: EOF") and counted dropped.
func TestProxyShutdownAnswersInFlight(t *testing.T) {
	var marked atomic.Bool
	held, release := make(chan struct{}, 1), make(chan struct{})
	var releaseOnce sync.Once
	releaseHeld := func() { releaseOnce.Do(func() { close(release) }) }
	defer releaseHeld()
	a, _ := holdingFake(t, &marked, held, release)
	p, addr := startProxy(t, fastHealth(Config{Backends: []BackendSpec{{Addr: a}}}))
	done := heldForward(t, addr, &marked, held)

	shut := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		shut <- p.Shutdown(ctx)
	}()
	time.Sleep(200 * time.Millisecond)
	select {
	case err := <-shut:
		t.Fatalf("Shutdown returned (%v) with a forward still held", err)
	default:
	}
	releaseHeld()
	if err := <-done; err != nil {
		t.Errorf("in-flight request across Shutdown: %v", err)
	}
	if err := <-shut; err != nil {
		t.Errorf("Shutdown: %v", err)
	}
	c := p.snapshot()
	if c.Requests != 1 || c.Responses != 1 || c.Dropped != 0 {
		t.Errorf("ledger after the drain: requests %d responses %d dropped %d; want 1, 1, 0",
			c.Requests, c.Responses, c.Dropped)
	}
	if c.ConnsActive != 0 {
		t.Errorf("%d client connections still active after Shutdown", c.ConnsActive)
	}
}

// TestProxyForcedShutdownReturnsAtDeadline: with a forward held and a
// ctx that expires long before ForwardTimeout, Shutdown returns
// ctx.Err() at once. The held forward then fails on its closed backend
// connection and starts no new attempt on the other backend, and its
// reply is counted dropped. Shutdown used to wait out ForwardTimeout.
func TestProxyForcedShutdownReturnsAtDeadline(t *testing.T) {
	var marked atomic.Bool
	held, release := make(chan struct{}, 1), make(chan struct{})
	defer close(release)
	a1, conns1 := holdingFake(t, &marked, held, release)
	a2, conns2 := holdingFake(t, &marked, held, release)
	p, addr := startProxy(t, fastHealth(Config{
		Backends:       []BackendSpec{{Addr: a1}, {Addr: a2}},
		ForwardTimeout: 3 * time.Second,
	}))
	done := heldForward(t, addr, &marked, held)

	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	start := time.Now()
	err := p.Shutdown(ctx)
	if took := time.Since(start); !errors.Is(err, context.DeadlineExceeded) || took > time.Second {
		t.Fatalf("Shutdown = %v after %v; want %v within 1s", err, took, context.DeadlineExceeded)
	}
	if err := <-done; err == nil {
		t.Error("the held request was answered across a forced Shutdown")
	}
	waitFor(t, 2*time.Second, "the held forward to end", func() bool {
		c := p.snapshot()
		return c.Requests == 1 && c.Dropped == 1
	})
	if n := p.ctr.retries.Load(); n != 0 {
		t.Errorf("retries = %d after Shutdown, want 0", n)
	}
	if n := conns1.Load() + conns2.Load(); n != 1 {
		t.Errorf("backend connections carrying requests = %d, want 1", n)
	}
}
