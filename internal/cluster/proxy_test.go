package cluster

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/server"
)

// testBackend is one live gfserved-shaped process for proxy tests: a
// real server.Server plus its admin HTTP plane, stoppable and
// restartable on the same ports (the restart half of the
// kill/eject/readmit lifecycle).
type testBackend struct {
	t         *testing.T
	cfg       server.Config
	srv       *server.Server
	addr      string // GFP1 address
	adminAddr string
	adminSrv  *http.Server
	serveDone chan error
	stopped   atomic.Bool
}

func startBackend(t *testing.T, cfg server.Config) *testBackend {
	t.Helper()
	tb := &testBackend{t: t, cfg: cfg}
	tb.start("127.0.0.1:0", "127.0.0.1:0")
	t.Cleanup(tb.stop)
	return tb
}

// start binds the GFP1 and admin listeners (":0" or a previously bound
// address for a restart) and launches the server.
func (tb *testBackend) start(addr, adminAddr string) {
	tb.t.Helper()
	srv, err := server.New(tb.cfg)
	if err != nil {
		tb.t.Fatal(err)
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		tb.t.Fatal(err)
	}
	adminLn, err := net.Listen("tcp", adminAddr)
	if err != nil {
		tb.t.Fatal(err)
	}
	reg := obs.NewRegistry()
	srv.RegisterMetrics(reg)
	tb.srv = srv
	tb.addr = ln.Addr().String()
	tb.adminAddr = adminLn.Addr().String()
	tb.adminSrv = &http.Server{Handler: srv.AdminHandler(reg)}
	tb.serveDone = make(chan error, 1)
	tb.stopped.Store(false)
	go func() { tb.serveDone <- srv.Serve(ln) }()
	go tb.adminSrv.Serve(adminLn)
}

// kill simulates losing the process mid-flight: connections are cut
// (expired context) and the admin plane goes dark.
func (tb *testBackend) kill() {
	tb.t.Helper()
	if tb.stopped.Swap(true) {
		return
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	tb.srv.Shutdown(ctx)
	tb.adminSrv.Close()
	select {
	case <-tb.serveDone:
	case <-time.After(5 * time.Second):
		tb.t.Error("Serve did not return after kill")
	}
}

// restart brings the backend back on the same GFP1 and admin ports.
func (tb *testBackend) restart() {
	tb.t.Helper()
	if !tb.stopped.Load() {
		tb.t.Fatal("restart of a running backend")
	}
	tb.start(tb.addr, tb.adminAddr)
}

func (tb *testBackend) stop() {
	if tb.stopped.Swap(true) {
		return
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	tb.srv.Shutdown(ctx)
	tb.adminSrv.Close()
	select {
	case err := <-tb.serveDone:
		if err != nil {
			tb.t.Errorf("backend Serve: %v", err)
		}
	case <-time.After(5 * time.Second):
		tb.t.Error("backend Serve did not return after Shutdown")
	}
}

func (tb *testBackend) spec() BackendSpec {
	return BackendSpec{Addr: tb.addr, Admin: tb.adminAddr}
}

// startProxy runs a proxy on a loopback listener; cleanup shuts it
// down.
func startProxy(t *testing.T, cfg Config) (*Proxy, string) {
	t.Helper()
	p, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	serveDone := make(chan error, 1)
	go func() { serveDone <- p.Serve(ln) }()
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		p.Shutdown(ctx)
		select {
		case err := <-serveDone:
			if err != nil {
				t.Errorf("proxy Serve: %v", err)
			}
		case <-time.After(5 * time.Second):
			t.Error("proxy Serve did not return after Shutdown")
		}
	})
	return p, ln.Addr().String()
}

func dialProxy(t *testing.T, addr string) *server.Client {
	t.Helper()
	c, err := server.Dial(addr, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

// fastHealth is the aggressive health-check config tests use so
// eject/readmit cycles complete in tens of milliseconds.
func fastHealth(c Config) Config {
	c.HealthInterval = 25 * time.Millisecond
	c.HealthTimeout = 250 * time.Millisecond
	c.DialWait = 100 * time.Millisecond
	return c
}

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, d time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// checkLedger asserts the proxy's exact disjoint request ledger after
// quiesce. pconn.write counts a reply only after flushing it, so a
// client can hold its last reply before the counters show it: the
// ledger is polled until it balances, for at most 5 s.
func checkLedger(t *testing.T, p *Proxy) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		c := p.ctr.snapshot()
		if c.Requests == c.Responses+c.Rejects+c.Dropped {
			return
		}
		if time.Now().After(deadline) {
			t.Errorf("proxy ledger: requests=%d != responses=%d + rejects=%d + dropped=%d",
				c.Requests, c.Responses, c.Rejects, c.Dropped)
			return
		}
		time.Sleep(time.Millisecond)
	}
}

// TestProxyRoundTrip: every op round-trips through the proxy to a
// 3-backend fleet, including the stats op (answered by whichever
// backend owns the connection's arc).
func TestProxyRoundTrip(t *testing.T) {
	var specs []BackendSpec
	for i := 0; i < 3; i++ {
		specs = append(specs, startBackend(t, server.Config{Workers: 2}).spec())
	}
	p, addr := startProxy(t, fastHealth(Config{Backends: specs}))
	c := dialProxy(t, addr)

	msg := make([]byte, 239)
	rand.New(rand.NewSource(7)).Read(msg)
	cw, err := c.RSEncode(msg)
	if err != nil {
		t.Fatal(err)
	}
	cw[3] ^= 0x80
	got, err := c.RSDecode(cw)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, msg) {
		t.Error("rs decode through proxy did not restore the message")
	}

	nonce := make([]byte, server.NonceSize)
	sealed, err := c.Seal(nonce, msg)
	if err != nil {
		t.Fatal(err)
	}
	pt, err := c.Open(nonce, sealed)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(pt, msg) {
		t.Error("seal/open through proxy did not restore the plaintext")
	}

	st, err := c.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.Config.K != 239 {
		t.Errorf("stats through proxy: k=%d, want 239", st.Config.K)
	}

	// Backend error statuses relay verbatim: a wrong-size encode payload
	// is the backend's StatusBadRequest, not a proxy failure.
	if _, err := c.RSEncode(msg[:10]); err == nil {
		t.Error("short rs-encode: no error")
	} else {
		var se *server.StatusError
		if !errors.As(err, &se) || se.Status != server.StatusBadRequest {
			t.Errorf("short rs-encode: %v, want StatusBadRequest", err)
		}
	}
	if p.healthyBackends() != 3 {
		t.Errorf("healthy backends = %d, want 3", p.healthyBackends())
	}
}

// TestProxyKillEjectReadmitUnderLoad is the acceptance lifecycle test:
// idempotent load runs through a 3-backend fleet while one backend is
// killed mid-flight, ejected, restarted on the same ports and
// readmitted — with zero client-visible errors. Run under -race.
func TestProxyKillEjectReadmitUnderLoad(t *testing.T) {
	backends := make([]*testBackend, 3)
	specs := make([]BackendSpec, 3)
	for i := range backends {
		backends[i] = startBackend(t, server.Config{Workers: 2})
		specs[i] = backends[i].spec()
	}
	p, addr := startProxy(t, fastHealth(Config{
		Backends:       specs,
		Retries:        3,
		RouteByRequest: true, // spread every loader across the whole fleet
		FailAfter:      2,
		ReadmitAfter:   2,
	}))

	const loaders = 4
	var (
		stop     atomic.Bool
		calls    atomic.Int64
		failures atomic.Int64
		wg       sync.WaitGroup
	)
	msg := make([]byte, 239)
	rand.New(rand.NewSource(11)).Read(msg)
	for i := 0; i < loaders; i++ {
		c := dialProxy(t, addr)
		wg.Add(1)
		go func(c *server.Client) {
			defer wg.Done()
			for !stop.Load() {
				if _, err := c.RSEncode(msg); err != nil {
					failures.Add(1)
					t.Errorf("rs-encode under fleet churn: %v", err)
					return
				}
				calls.Add(1)
			}
		}(c)
	}

	// Let the load warm up, then lose a backend.
	waitFor(t, 5*time.Second, "warm-up traffic", func() bool { return calls.Load() > 50 })
	victim := backends[0]
	victim.kill()
	waitFor(t, 5*time.Second, "ejection of the killed backend", func() bool {
		return !p.backends[0].healthy()
	})
	// Keep load flowing against the degraded fleet.
	mid := calls.Load()
	waitFor(t, 5*time.Second, "traffic on the degraded fleet", func() bool { return calls.Load() > mid+50 })

	victim.restart()
	waitFor(t, 5*time.Second, "readmission of the restarted backend", func() bool {
		return p.backends[0].healthy()
	})
	// And traffic after recovery.
	post := calls.Load()
	waitFor(t, 5*time.Second, "traffic on the recovered fleet", func() bool { return calls.Load() > post+50 })

	stop.Store(true)
	wg.Wait()

	if n := failures.Load(); n != 0 {
		t.Errorf("%d idempotent requests failed across kill/eject/readmit", n)
	}
	if p.ctr.ejections.Load() < 1 || p.ctr.readmits.Load() < 1 {
		t.Errorf("ejections=%d readmits=%d, want >=1 each",
			p.ctr.ejections.Load(), p.ctr.readmits.Load())
	}
	checkLedger(t, p)
}

// fakeBackend is a scriptable GFP1 endpoint for failure-injection
// tests: handle returns the response for a request, or ok=false to
// kill the connection instead (a transport failure mid-call).
type fakeBackend struct {
	ln     net.Listener
	handle func(m *server.Message) (resp *server.Message, ok bool)
}

func startFake(t *testing.T, handle func(m *server.Message) (*server.Message, bool)) *fakeBackend {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	f := &fakeBackend{ln: ln, handle: handle}
	go func() {
		for {
			nc, err := ln.Accept()
			if err != nil {
				return
			}
			go f.serve(nc)
		}
	}()
	t.Cleanup(func() { ln.Close() })
	return f
}

func (f *fakeBackend) serve(nc net.Conn) {
	defer nc.Close()
	br := bufio.NewReader(nc)
	for {
		m, err := server.ReadRequest(br, server.DefaultMaxPayload)
		if err != nil {
			return
		}
		resp, ok := f.handle(m)
		if !ok {
			return
		}
		resp.ID = m.ID
		if err := server.WriteResponse(nc, resp); err != nil {
			return
		}
	}
}

func (f *fakeBackend) addr() string { return f.ln.Addr().String() }

// TestProxyIdempotentRetry: a backend that cuts the connection on every
// rs-encode never surfaces to the client — the proxy replays the
// request on the healthy backend.
func TestProxyIdempotentRetry(t *testing.T) {
	flaky := startFake(t, func(m *server.Message) (*server.Message, bool) {
		return nil, false // kill the connection: transport failure
	})
	real := startBackend(t, server.Config{Workers: 2})
	p, addr := startProxy(t, fastHealth(Config{
		Backends:       []BackendSpec{{Addr: flaky.addr()}, real.spec()},
		Retries:        2,
		RouteByRequest: true,
		FailAfter:      100, // keep the flaky backend in rotation for the whole test
	}))
	c := dialProxy(t, addr)

	msg := make([]byte, 239)
	for i := 0; i < 64; i++ {
		if _, err := c.RSEncode(msg); err != nil {
			t.Fatalf("rs-encode %d: %v", i, err)
		}
	}
	if p.ctr.retries.Load() == 0 {
		t.Error("no retries recorded: the flaky backend was never primary? (64 spread requests)")
	}
	if p.ctr.backendFails.Load() == 0 {
		t.Error("no backend failures recorded")
	}
	checkLedger(t, p)
}

// TestProxySealNotRetried: a transport failure mid-seal must NOT be
// replayed (nonce reuse); the client sees StatusUnavailable after one
// attempt.
func TestProxySealNotRetried(t *testing.T) {
	dead := startFake(t, func(m *server.Message) (*server.Message, bool) {
		return nil, false
	})
	dead2 := startFake(t, func(m *server.Message) (*server.Message, bool) {
		return nil, false
	})
	p, addr := startProxy(t, fastHealth(Config{
		Backends:  []BackendSpec{{Addr: dead.addr()}, {Addr: dead2.addr()}},
		Retries:   2,
		FailAfter: 100,
	}))
	c := dialProxy(t, addr)

	nonce := make([]byte, server.NonceSize)
	_, err := c.Seal(nonce, []byte("secret"))
	if err == nil {
		t.Fatal("seal against a dead fleet: no error")
	}
	var se *server.StatusError
	if !errors.As(err, &se) || se.Status != server.StatusUnavailable {
		t.Fatalf("seal error = %v, want StatusUnavailable", err)
	}
	if !strings.Contains(se.Msg, "not idempotent") {
		t.Errorf("unavailable message %q does not explain the no-retry decision", se.Msg)
	}
	if n := p.ctr.retries.Load(); n != 0 {
		t.Errorf("%d retries recorded for a non-idempotent op", n)
	}
	if n := p.ctr.backendFails.Load(); n != 1 {
		t.Errorf("backend failures = %d, want exactly 1 (single attempt)", n)
	}
	checkLedger(t, p)
}

// TestProxyECDSASignRetry: ecdsa-sign is idempotent (deterministic
// RFC 6979 nonces), so a transport failure mid-sign is transparently
// replayed — and because every backend sharing the fleet key signs
// identically, the retried answers are bit-identical across the fleet.
func TestProxyECDSASignRetry(t *testing.T) {
	flaky := startFake(t, func(m *server.Message) (*server.Message, bool) {
		return nil, false // kill the connection: transport failure
	})
	key := []byte("sign-retry-key!!") // 16 bytes: a valid AES-128 key
	real1 := startBackend(t, server.Config{Workers: 2, Key: append([]byte(nil), key...)})
	real2 := startBackend(t, server.Config{Workers: 2, Key: append([]byte(nil), key...)})
	p, addr := startProxy(t, fastHealth(Config{
		Backends:       []BackendSpec{{Addr: flaky.addr()}, real1.spec(), real2.spec()},
		Retries:        2,
		RouteByRequest: true,
		FailAfter:      100, // keep the flaky backend in rotation for the whole test
	}))
	c := dialProxy(t, addr)

	digest := make([]byte, 32)
	rand.New(rand.NewSource(17)).Read(digest)
	var first []byte
	for i := 0; i < 64; i++ {
		sig, err := c.ECDSASign(digest)
		if err != nil {
			t.Fatalf("ecdsa-sign %d under flaky backend: %v", i, err)
		}
		if first == nil {
			first = sig
		} else if !bytes.Equal(first, sig) {
			t.Fatalf("ecdsa-sign %d: signature diverged across backends", i)
		}
	}
	if p.ctr.retries.Load() == 0 {
		t.Error("no retries recorded: the flaky backend was never primary? (64 spread requests)")
	}
	checkLedger(t, p)
}

// TestProxySecureSessionNotRetried: the handshake draws a fresh
// ephemeral key per attempt, so a transport failure mid-handshake must
// NOT be replayed; the client sees StatusUnavailable after one attempt.
func TestProxySecureSessionNotRetried(t *testing.T) {
	dead := startFake(t, func(m *server.Message) (*server.Message, bool) {
		return nil, false
	})
	dead2 := startFake(t, func(m *server.Message) (*server.Message, bool) {
		return nil, false
	})
	p, addr := startProxy(t, fastHealth(Config{
		Backends:  []BackendSpec{{Addr: dead.addr()}, {Addr: dead2.addr()}},
		Retries:   2,
		FailAfter: 100,
	}))
	c := dialProxy(t, addr)

	_, err := c.SecureSession(make([]byte, 61), []byte("challenge"))
	if err == nil {
		t.Fatal("secure-session against a dead fleet: no error")
	}
	var se *server.StatusError
	if !errors.As(err, &se) || se.Status != server.StatusUnavailable {
		t.Fatalf("secure-session error = %v, want StatusUnavailable", err)
	}
	if !strings.Contains(se.Msg, "not idempotent") {
		t.Errorf("unavailable message %q does not explain the no-retry decision", se.Msg)
	}
	if n := p.ctr.retries.Load(); n != 0 {
		t.Errorf("%d retries recorded for a non-idempotent op", n)
	}
	checkLedger(t, p)
}

// TestProxyRetrySafeReroute: a backend answering StatusShuttingDown
// rejected the request unprocessed, so even seal — non-idempotent — is
// transparently rerouted to the healthy backend.
func TestProxyRetrySafeReroute(t *testing.T) {
	draining := startFake(t, func(m *server.Message) (*server.Message, bool) {
		return &server.Message{Op: m.Op, Status: server.StatusShuttingDown,
			Payload: []byte("draining")}, true
	})
	real := startBackend(t, server.Config{Workers: 2})
	p, addr := startProxy(t, fastHealth(Config{
		Backends:       []BackendSpec{{Addr: draining.addr()}, real.spec()},
		Retries:        2,
		RouteByRequest: true,
	}))
	c := dialProxy(t, addr)

	nonce := make([]byte, server.NonceSize)
	for i := 0; i < 32; i++ {
		sealed, err := c.Seal(nonce, []byte("payload"))
		if err != nil {
			t.Fatalf("seal %d: %v", i, err)
		}
		if len(sealed) == 0 {
			t.Fatalf("seal %d: empty ciphertext", i)
		}
	}
	if p.ctr.retries.Load() == 0 {
		t.Error("no reroutes recorded: the draining backend was never primary? (32 spread requests)")
	}
	checkLedger(t, p)
}

// TestProxyAdmission: with a 1-deep tenant budget, a second concurrent
// request from the same client class is rejected immediately with
// StatusOverloaded while the first is still in flight.
func TestProxyAdmission(t *testing.T) {
	release := make(chan struct{})
	entered := make(chan struct{}, 16)
	slow := startFake(t, func(m *server.Message) (*server.Message, bool) {
		entered <- struct{}{}
		<-release
		return &server.Message{Op: m.Op, Status: server.StatusOK}, true
	})
	defer close(release)

	p, addr := startProxy(t, fastHealth(Config{
		Backends:       []BackendSpec{{Addr: slow.addr()}},
		TenantInflight: 1,
	}))
	c := dialProxy(t, addr)

	firstDone := make(chan error, 1)
	go func() {
		_, err := c.Call(server.OpStats, nil, nil)
		firstDone <- err
	}()
	<-entered // the first request holds the tenant's only slot

	_, err := c.Call(server.OpStats, nil, nil)
	var se *server.StatusError
	if !errors.As(err, &se) || se.Status != server.StatusOverloaded {
		t.Fatalf("second concurrent call: %v, want StatusOverloaded", err)
	}

	release <- struct{}{}
	if err := <-firstDone; err != nil {
		t.Fatalf("first call after release: %v", err)
	}
	if p.ctr.admRejects.Load() != 1 {
		t.Errorf("admission rejects = %d, want 1", p.ctr.admRejects.Load())
	}
	// The freed slot admits the next request.
	done := make(chan error, 1)
	go func() {
		_, err := c.Call(server.OpStats, nil, nil)
		done <- err
	}()
	<-entered
	release <- struct{}{}
	if err := <-done; err != nil {
		t.Fatalf("call after slot freed: %v", err)
	}
	checkLedger(t, p)
}

// TestProxyUnavailable: a fleet that is entirely dark answers
// StatusUnavailable (and /healthz goes 503) instead of hanging.
func TestProxyUnavailable(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	deadAddr := ln.Addr().String()
	ln.Close() // nothing listens here

	p, addr := startProxy(t, fastHealth(Config{
		Backends: []BackendSpec{{Addr: deadAddr}},
		Retries:  1,
	}))
	waitFor(t, 5*time.Second, "ejection of the dead backend", func() bool {
		return p.healthyBackends() == 0
	})
	if err := p.Healthy(); err == nil {
		t.Error("Healthy() = nil with the whole fleet ejected")
	}

	c := dialProxy(t, addr)
	_, err = c.Call(server.OpRSEncode, nil, make([]byte, 239))
	var se *server.StatusError
	if !errors.As(err, &se) || se.Status != server.StatusUnavailable {
		t.Fatalf("call against dark fleet: %v, want StatusUnavailable", err)
	}
	checkLedger(t, p)
}

// TestProxyAggregation: the proxy's admin plane folds the fleet into
// one surface — /statsz sums the backend ledgers and /metrics renders
// both the proxy's own families and the merged backend families.
func TestProxyAggregation(t *testing.T) {
	b1 := startBackend(t, server.Config{Workers: 2})
	b2 := startBackend(t, server.Config{Workers: 2})
	p, addr := startProxy(t, fastHealth(Config{
		Backends:       []BackendSpec{b1.spec(), b2.spec()},
		RouteByRequest: true,
	}))
	c := dialProxy(t, addr)
	msg := make([]byte, 239)
	for i := 0; i < 32; i++ {
		if _, err := c.RSEncode(msg); err != nil {
			t.Fatal(err)
		}
	}

	reg := obs.NewRegistry()
	p.RegisterMetrics(reg)
	admin := p.AdminHandler(reg)

	// /statsz: both backends scraped, fleet ledger sums theirs.
	rr := httptest.NewRecorder()
	admin.ServeHTTP(rr, httptest.NewRequest("GET", "/statsz", nil))
	if rr.Code != http.StatusOK {
		t.Fatalf("/statsz: %d", rr.Code)
	}
	var sz Statsz
	if err := json.Unmarshal(rr.Body.Bytes(), &sz); err != nil {
		t.Fatalf("/statsz decode: %v", err)
	}
	if sz.Fleet.Scraped != 2 {
		for _, b := range sz.Fleet.Backends {
			t.Logf("backend %s admin=%s state=%s fetch_err=%q", b.Addr, b.Admin, b.State, b.FetchErr)
		}
		t.Fatalf("scraped %d backends, want 2", sz.Fleet.Scraped)
	}
	var sum int64
	for _, b := range sz.Fleet.Backends {
		if b.Server == nil {
			t.Fatalf("backend %s: no scraped ledger", b.Addr)
		}
		if b.ListenAddr == "" {
			t.Errorf("backend %s: no listen_addr in scraped statsz", b.Addr)
		}
		sum += b.Server.Requests
	}
	if sz.Fleet.Fleet.Requests != sum || sum < 32 {
		t.Errorf("fleet requests = %d, want sum of backends %d (>=32)", sz.Fleet.Fleet.Requests, sum)
	}
	if sz.Proxy.Requests != 32 {
		t.Errorf("proxy requests = %d, want 32", sz.Proxy.Requests)
	}
	if sz.Fleet.Latency.Count < 32 {
		t.Errorf("merged fleet latency count = %d, want >= 32", sz.Fleet.Latency.Count)
	}

	// /metrics: one page carries gfp_proxy_* and the merged gfp_server_*
	// and gfp_pipeline_* families.
	rr = httptest.NewRecorder()
	admin.ServeHTTP(rr, httptest.NewRequest("GET", "/metrics", nil))
	body := rr.Body.String()
	for _, want := range []string{
		"gfp_proxy_requests_total 32",
		"gfp_proxy_backends_healthy 2",
		`gfp_proxy_backend_forwards_total{backend="`,
		"gfp_server_requests_total ", // merged across both backends
		"gfp_pipeline_latency_seconds_bucket",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}

	// /healthz while both backends are up.
	rr = httptest.NewRecorder()
	admin.ServeHTTP(rr, httptest.NewRequest("GET", "/healthz", nil))
	if rr.Code != http.StatusOK {
		t.Errorf("/healthz: %d, want 200", rr.Code)
	}
	checkLedger(t, p)
}

// TestProxyConfigErrors: constructor-level validation.
func TestProxyConfigErrors(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Error("no backends: no error")
	}
	specs := make([]BackendSpec, 65)
	for i := range specs {
		specs[i] = BackendSpec{Addr: fmt.Sprintf("10.0.0.%d:1", i)}
	}
	if _, err := New(Config{Backends: specs}); err == nil {
		t.Error("65 backends: no error")
	}
	if _, err := New(Config{Backends: []BackendSpec{{Addr: "a:1"}, {Addr: "a:1"}}}); err == nil {
		t.Error("duplicate backends: no error")
	}
}
