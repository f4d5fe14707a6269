package cluster

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"io"
	"net"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/server"
)

// burst sends n rs-encodes spread over conns fresh client connections,
// all in flight at once, and returns the failures.
func burst(t *testing.T, addr string, conns, n int) []error {
	t.Helper()
	clients := make([]*server.Client, conns)
	for i := range clients {
		clients[i] = dialProxy(t, addr)
	}
	var (
		mu   sync.Mutex
		errs []error
		wg   sync.WaitGroup
	)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(c *server.Client) {
			defer wg.Done()
			if _, err := c.RSEncode(make([]byte, 239)); err != nil {
				mu.Lock()
				errs = append(errs, err)
				mu.Unlock()
			}
		}(clients[i%conns])
	}
	wg.Wait()
	return errs
}

// TestProxyStaleBackendConnection: a backend closes a connection left
// idle past its read timeout, and the proxy must not forward on the
// dead one afterwards. A seal (never retried) must succeed, and a burst
// of rs-encodes must succeed with no backend failure and no ejection.
// Pooled clients used to be handed out dead: the seal failed with
// "connection lost: EOF", and the burst ejected both healthy backends.
func TestProxyStaleBackendConnection(t *testing.T) {
	const idleLimit, idle = 300 * time.Millisecond, 800 * time.Millisecond
	backendCfg := server.Config{Workers: 2, ReadTimeout: idleLimit}

	t.Run("seal", func(t *testing.T) {
		b := startBackend(t, backendCfg)
		_, addr := startProxy(t, fastHealth(Config{Backends: []BackendSpec{b.spec()}}))
		c := dialProxy(t, addr)
		nonce := make([]byte, server.NonceSize)
		if _, err := c.Seal(nonce, []byte("before idling")); err != nil {
			t.Fatal(err)
		}
		time.Sleep(idle)
		if _, err := c.Seal(nonce, []byte("after idling")); err != nil {
			t.Fatalf("seal after the backend closed the idle connection: %v", err)
		}
	})

	t.Run("burst", func(t *testing.T) {
		b1, b2 := startBackend(t, backendCfg), startBackend(t, backendCfg)
		p, addr := startProxy(t, fastHealth(Config{
			Backends:       []BackendSpec{b1.spec(), b2.spec()},
			RouteByRequest: true,
		}))
		if errs := burst(t, addr, 8, 32); len(errs) > 0 {
			t.Fatalf("warm-up burst: %d failures, first %v", len(errs), errs[0])
		}
		time.Sleep(idle)
		if errs := burst(t, addr, 8, 32); len(errs) > 0 {
			t.Errorf("burst after idling: %d failures, first %v", len(errs), errs[0])
		}
		if n := p.ctr.backendFails.Load(); n != 0 {
			t.Errorf("backend failures = %d, want 0", n)
		}
		if n := p.ctr.ejections.Load(); n != 0 {
			t.Errorf("ejections = %d, want 0", n)
		}
		checkLedger(t, p)
	})
}

// TestProxyOneConnectionPerBackend: 64 concurrent requests open one
// GFP1 connection to each backend. The backends have admin addresses,
// so health probes never touch their GFP1 ports.
func TestProxyOneConnectionPerBackend(t *testing.T) {
	b1, b2 := startBackend(t, server.Config{Workers: 2}), startBackend(t, server.Config{Workers: 2})
	p, addr := startProxy(t, fastHealth(Config{
		Backends:       []BackendSpec{b1.spec(), b2.spec()},
		RouteByRequest: true,
	}))
	if errs := burst(t, addr, 8, 64); len(errs) > 0 {
		t.Fatalf("%d of 64 requests failed, first %v", len(errs), errs[0])
	}
	for i, b := range []*testBackend{b1, b2} {
		c := b.srv.Snapshot().Server
		if c.Requests == 0 {
			t.Errorf("backend %d served no request", i)
		}
		if c.ConnsAccepted != 1 {
			t.Errorf("backend %d accepted %d GFP1 connections, want 1", i, c.ConnsAccepted)
		}
	}
	checkLedger(t, p)
}

// TestProxyOversizeSealKeepsBackendConnection: a seal at the payload
// guard comes back too large through the proxy, with no backend failure
// and no redial: the backend rejects it instead of answering 16 bytes
// over the guard, which the proxy's backend client used to take for a
// framing error, tearing down the shared connection under every other
// forward on it and answering the seal unavailable.
func TestProxyOversizeSealKeepsBackendConnection(t *testing.T) {
	b := startBackend(t, server.Config{Workers: 1})
	p, addr := startProxy(t, fastHealth(Config{Backends: []BackendSpec{b.spec()}}))
	c := dialProxy(t, addr)
	nonce := make([]byte, server.NonceSize)
	_, err := c.Seal(nonce, make([]byte, server.DefaultMaxPayload))
	var se *server.StatusError
	if !errors.As(err, &se) || se.Status != server.StatusTooLarge {
		t.Fatalf("seal at the guard: %v, want a %v rejection", err, server.StatusTooLarge)
	}
	if _, err := c.Seal(nonce, []byte("after the oversize seal")); err != nil {
		t.Fatalf("seal after the oversize one: %v", err)
	}
	if n := p.ctr.backendFails.Load(); n != 0 {
		t.Errorf("backend failures = %d, want 0", n)
	}
	if n := b.srv.Snapshot().Server.ConnsAccepted; n != 1 {
		t.Errorf("backend accepted %d GFP1 connections, want 1 (no redial)", n)
	}
	checkLedger(t, p)
}

// startPipelinedFake runs a GFP1 backend that, like a gfserved and
// unlike startFake, keeps reading while handle runs, so a request that
// handle holds back delays no other on its connection. It returns the
// address and a count of the connections that carried a request.
func startPipelinedFake(t *testing.T, handle func(m *server.Message) *server.Message) (string, *atomic.Int32) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	conns := new(atomic.Int32)
	serve := func(nc net.Conn) {
		defer nc.Close()
		var wmu sync.Mutex
		br := bufio.NewReader(nc)
		for first := true; ; first = false {
			m, err := server.ReadRequest(br, server.DefaultMaxPayload)
			if err != nil {
				return
			}
			if first {
				conns.Add(1)
			}
			go func() {
				resp := handle(m)
				resp.ID = m.ID
				wmu.Lock()
				defer wmu.Unlock()
				server.WriteResponse(nc, resp)
			}()
		}
	}
	go func() {
		for {
			nc, err := ln.Accept()
			if err != nil {
				return
			}
			go serve(nc)
		}
	}()
	return ln.Addr().String(), conns
}

// TestProxyForwardTimeout: a backend that never answers one request
// while it answers the others on the same connection. After
// ForwardTimeout the call is abandoned as a transport failure: an
// rs-encode is retried on the other backend and succeeds, and a seal
// gets StatusUnavailable. The calls answered around it complete, the
// connection stays up (no redial), and the late reply is discarded.
func TestProxyForwardTimeout(t *testing.T) {
	const timeout = 400 * time.Millisecond
	// Only the first marked request, whichever backend sees it, is held,
	// until the test releases it.
	var marked atomic.Bool
	held, release := make(chan struct{}, 2), make(chan struct{})
	var releaseOnce sync.Once
	releaseHeld := func() { releaseOnce.Do(func() { close(release) }) }
	defer releaseHeld()
	handle := func(m *server.Message) *server.Message {
		if len(m.Payload) > 0 && m.Payload[0] == 0xee && marked.CompareAndSwap(true, false) {
			held <- struct{}{}
			<-release // answered late: the proxy abandoned the call
		}
		return &server.Message{Op: m.Op, Payload: m.Payload}
	}
	a1, conns1 := startPipelinedFake(t, handle)
	a2, conns2 := startPipelinedFake(t, handle)
	p, addr := startProxy(t, fastHealth(Config{
		Backends:       []BackendSpec{{Addr: a1}, {Addr: a2}},
		ForwardTimeout: timeout,
		FailAfter:      100, // no ejection: the connection must outlive the timeout
	}))
	c := dialProxy(t, addr)
	msg := make([]byte, 239)
	call := func(op server.Op, params, payload []byte) (time.Duration, error) {
		start := time.Now()
		_, err := c.Call(op, params, payload)
		return time.Since(start), err
	}
	// heldCall starts a marked call and waits until a backend holds it.
	heldCall := func(op server.Op, params []byte) chan error {
		marked.Store(true)
		done := make(chan error, 1)
		go func() {
			payload := append([]byte{0xee}, msg[1:]...)
			took, err := call(op, params, payload)
			if err == nil && took < timeout {
				err = errors.New("answered before ForwardTimeout: " + took.String())
			}
			done <- err
		}()
		select {
		case <-held:
		case <-time.After(5 * time.Second):
			t.Fatal("no backend received the marked request")
		}
		return done
	}
	// answeredAround sends unmarked calls on the same client connection
	// (routed by connection, so to the same backend connection) while
	// the held call is pending.
	answeredAround := func(done chan error) {
		for i := 0; i < 5; i++ {
			if _, err := call(server.OpRSEncode, nil, msg); err != nil {
				t.Fatalf("call %d beside the held one: %v", i, err)
			}
			select {
			case err := <-done:
				t.Fatalf("held call returned (%v) before the calls around it", err)
			default:
			}
		}
	}

	done := heldCall(server.OpRSEncode, nil)
	answeredAround(done)
	if err := <-done; err != nil {
		t.Fatalf("held rs-encode: %v, want a retry that succeeds", err)
	}
	if p.ctr.retries.Load() != 1 || p.ctr.backendFails.Load() != 1 {
		t.Errorf("retries = %d, backend failures = %d; want 1 and 1",
			p.ctr.retries.Load(), p.ctr.backendFails.Load())
	}

	nonce := make([]byte, server.NonceSize)
	done = heldCall(server.OpSeal, nonce)
	answeredAround(done)
	var se *server.StatusError
	if err := <-done; !errors.As(err, &se) || se.Status != server.StatusUnavailable ||
		!strings.Contains(se.Msg, "not idempotent") {
		t.Fatalf("held seal: %v, want StatusUnavailable without a retry", err)
	}
	if n := p.ctr.retries.Load(); n != 1 {
		t.Errorf("retries = %d after the seal, want still 1", n)
	}

	// The late replies arrive on connections the proxy kept; they are
	// discarded, and the connections go on carrying calls.
	releaseHeld()
	for i := 0; i < 5; i++ {
		if _, err := call(server.OpRSEncode, nil, msg); err != nil {
			t.Fatalf("call %d after the late replies: %v", i, err)
		}
	}
	if n1, n2 := conns1.Load(), conns2.Load(); n1 > 1 || n2 > 1 {
		t.Errorf("backend connections carrying requests = %d and %d, want at most 1 each", n1, n2)
	}
	checkLedger(t, p)
}

// TestProxyNoCrossClientHeadOfLine: with client A's ecdsa-verify in
// flight on a backend, client B's sequential rs-encodes through the same
// proxy, and so the same backend connection, must all be answered
// before it. The backend answers in completion order, and the shared
// connection must not reorder them.
func TestProxyNoCrossClientHeadOfLine(t *testing.T) {
	const encodes = 10
	// With one P the verify keeps the only P until it returns, so B's
	// worker could not run beside it whatever the proxy did.
	if runtime.GOMAXPROCS(0) < 2 {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	}
	b := startBackend(t, server.Config{Workers: 2})
	_, addr := startProxy(t, fastHealth(Config{Backends: []BackendSpec{b.spec()}}))
	a, bc := dialProxy(t, addr), dialProxy(t, addr)
	pub, err := hex.DecodeString(b.srv.Snapshot().Config.ECC.PublicKey)
	if err != nil {
		t.Fatal(err)
	}
	digest := sha256.Sum256([]byte("head-of-line"))
	sig, err := a.ECDSASign(digest[:])
	if err != nil {
		t.Fatal(err)
	}

	stageIn := func() int64 { return b.srv.Snapshot().Stages[0].BytesIn }
	begun := stageIn()
	slow := make(chan error, 1)
	go func() { slow <- a.ECDSAVerify(pub, sig, digest[:]) }()
	// BytesIn moves when a worker takes the frame, before Process runs.
	for deadline := time.Now().Add(5 * time.Second); stageIn() == begun; time.Sleep(20 * time.Microsecond) {
		if time.Now().After(deadline) {
			t.Fatal("no worker began the verify within 5s")
		}
	}

	msg := make([]byte, 239)
	for i := 0; i < encodes; i++ {
		if _, err := bc.RSEncode(msg); err != nil {
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

// TestProxyReadTimeoutIdleLimit: with ReadTimeout 400 ms and lazily
// re-armed deadlines, an idle client connection is cut no earlier than
// 7/8 of it after its last request and no later than ReadTimeout plus
// scheduling slack after its last reply, and a client sending one
// request every 150 ms for 2 s is never cut.
func TestProxyReadTimeoutIdleLimit(t *testing.T) {
	const limit, slack = 400 * time.Millisecond, 250 * time.Millisecond
	b := startBackend(t, server.Config{Workers: 2})
	_, addr := startProxy(t, fastHealth(Config{Backends: []BackendSpec{b.spec()}, ReadTimeout: limit}))
	t.Run("idle", func(t *testing.T) {
		t.Parallel()
		nc, err := net.Dial("tcp", addr)
		if err != nil {
			t.Fatal(err)
		}
		defer nc.Close()
		// The second request comes too soon after the first to re-arm
		// the deadline, so the cut also checks the lazy lower bound.
		br := bufio.NewReader(nc)
		var sent, replied time.Time
		for i := 0; i < 2; i++ {
			sent = time.Now()
			if err := server.WriteResponse(nc, &server.Message{Op: server.OpRSEncode, ID: uint64(i), Payload: make([]byte, 239)}); err != nil {
				t.Fatal(err)
			}
			if _, err := server.ReadRequest(br, server.DefaultMaxPayload); err != nil {
				t.Fatal(err)
			}
			replied = time.Now()
		}
		nc.SetReadDeadline(time.Now().Add(5 * limit))
		if _, err := br.ReadByte(); err != io.EOF {
			t.Fatalf("idle connection: read %v, want EOF from the proxy", err)
		}
		if sinceSend, sinceReply := time.Since(sent), time.Since(replied); sinceSend < limit*7/8 || sinceReply > limit+slack {
			t.Errorf("idle connection cut %v after the last request, %v after its reply; want >= %v and <= %v",
				sinceSend, sinceReply, limit*7/8, limit+slack)
		}
	})
	t.Run("steady", func(t *testing.T) {
		t.Parallel()
		c := dialProxy(t, addr)
		for start := time.Now(); time.Since(start) < 2*time.Second; time.Sleep(150 * time.Millisecond) {
			if _, err := c.RSEncode(make([]byte, 239)); err != nil {
				t.Fatalf("after %v: %v", time.Since(start), err)
			}
		}
	})
}
