package server

import (
	"crypto/sha256"
	"runtime"
	"testing"
	"time"
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
