package server

import (
	"crypto/sha256"
	"net"
	"runtime"
	"testing"
	"time"

	"repro/internal/aes"
)

// TestNoCrossConnectionHeadOfLine: a slow op in flight on one
// connection must not hold back fast replies on another. Connection A
// sends one ecdsa-verify (milliseconds of work); once a worker has
// begun it, connection B sends sequential rs-encodes, each waiting for
// its reply, and every one of B's replies must arrive before A's.
// Replies used to leave in server-wide submission order, so B's first
// encode waited for A's verify.
func TestNoCrossConnectionHeadOfLine(t *testing.T) {
	const encodes = 10
	// With one P the verify keeps the only P until it returns, so B's
	// worker could not run beside it whatever the server did. Two Ps let
	// the OS time-slice them even on a one-CPU host.
	if runtime.GOMAXPROCS(0) < 2 {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	}
	s, addr := startServer(t, Config{Workers: 2})
	a, b := dialT(t, addr), dialT(t, addr)
	_, pub := serverPublic(t, a)
	digest := sha256.Sum256([]byte("head-of-line"))
	sig, err := a.ECDSASign(digest[:])
	if err != nil {
		t.Fatal(err)
	}

	stage := s.pl.Stats()[0]
	begun := stage.BytesIn.Load()
	slow := make(chan error, 1)
	go func() { slow <- a.ECDSAVerify(pub, sig, digest[:]) }()
	// BytesIn moves when a worker takes the frame, before Process runs.
	for deadline := time.Now().Add(5 * time.Second); stage.BytesIn.Load() == begun; time.Sleep(20 * time.Microsecond) {
		if time.Now().After(deadline) {
			t.Fatal("no worker began the verify within 5s")
		}
	}

	msg := make([]byte, s.Code().FrameK())
	for i := 0; i < encodes; i++ {
		if _, err := b.RSEncode(msg); err != nil {
			t.Fatal(err)
		}
		select {
		case err := <-slow:
			t.Fatalf("A's verify (err %v) was answered before B's encode %d of %d", err, i+1, encodes)
		default:
		}
	}
	if err := <-slow; err != nil {
		t.Fatalf("verify: %v", err)
	}
}

// TestSlowReaderStallsOnlyItself: a client that stops reading stalls
// only its own connection. Connection A, its receive buffer shrunk,
// pipelines a full window of large seals and reads nothing, so the
// server's writes to it block. Meanwhile connection B's sequential
// requests are all answered promptly: no pipeline worker waits on A's
// socket. Once WriteTimeout passes, A is cut, and the ledger balances
// with A's unwritten replies counted dropped.
func TestSlowReaderStallsOnlyItself(t *testing.T) {
	const window, writeTimeout, prompt = 8, time.Second, 250 * time.Millisecond
	// One worker: a worker blocked on A's socket would stall B outright.
	s, addr := startServer(t, Config{Workers: 1, Window: window, WriteTimeout: writeTimeout})
	a, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	if err := a.(*net.TCPConn).SetReadBuffer(4 << 10); err != nil {
		t.Fatal(err)
	}
	nonce := make([]byte, NonceSize)
	for i := 0; i < window; i++ {
		// 8 MB of replies in all: more than the socket buffers, which
		// grow to megabytes on loopback, can hold.
		if err := writeMessage(a, &Message{Op: OpSeal, ID: uint64(i), Params: nonce,
			Payload: make([]byte, DefaultMaxPayload-aes.BlockSize)}); err != nil {
			t.Fatal(err)
		}
	}
	stage := s.pl.Stats()[0]
	for deadline := time.Now().Add(5 * time.Second); stage.Frames.Load() < window; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("the worker finished %d of A's %d seals within 5s", stage.Frames.Load(), window)
		}
	}

	b := dialT(t, addr)
	const encodes = 10
	msg := make([]byte, s.Code().FrameK())
	for i := 0; i < encodes; i++ {
		start := time.Now()
		if _, err := b.RSEncode(msg); err != nil {
			t.Fatal(err)
		}
		if took := time.Since(start); took > prompt {
			t.Errorf("B's encode %d took %v beside the stalled connection, want <= %v", i+1, took, prompt)
		}
	}
	if c := s.Snapshot().Server; c.Dropped != 0 {
		t.Fatalf("A was cut (%d dropped) before B finished: the stall did not overlap B's requests", c.Dropped)
	}

	for deadline := time.Now().Add(writeTimeout + 5*time.Second); ; time.Sleep(5 * time.Millisecond) {
		c := s.Snapshot().Server
		if c.Requests == window+encodes && c.Responses+c.Rejects+c.Dropped == c.Requests && c.ConnsActive == 1 {
			if c.Dropped == 0 {
				t.Errorf("A was cut with every reply counted written: %+v", c)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("A not cut, or the ledger unbalanced, 5s after WriteTimeout: %+v", c)
		}
	}
}
