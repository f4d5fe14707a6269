package cluster

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
	"repro/internal/obs/trace"
	"repro/internal/perf"
	"repro/internal/server"
)

// Config sizes and parameterizes a Proxy.
type Config struct {
	// Backends is the fleet (1..64 members). Every backend must serve the
	// same codec configuration; the proxy forwards requests verbatim.
	Backends []BackendSpec
	// Replicas is the virtual nodes per backend on the hash ring
	// (0 = 64).
	Replicas int
	// Retries is the extra forward attempts allowed per request beyond
	// the first (0 = 2). Only idempotent ops (Op.Idempotent) are retried
	// after a transport failure; any op is re-routed when a backend
	// refuses it unprocessed (Status.RetrySafe).
	Retries int
	// PoolSize is read by nothing: every forward to a backend pipelines
	// on one shared connection. It remains so existing callers still
	// compile.
	//
	// Deprecated: no effect.
	PoolSize int
	// DialWait bounds connection establishment to a backend, retrying
	// refused dials (0 = 1s).
	DialWait time.Duration
	// ForwardTimeout bounds one forward attempt end to end (0 = 30s). A
	// call the backend has not answered by then is abandoned and counts
	// as a transport failure; the backend connection stays up for the
	// other calls on it.
	ForwardTimeout time.Duration
	// Window caps each client connection's in-flight requests (0 = 32).
	Window int
	// MaxPayload is the per-request payload guard
	// (0 = server.DefaultMaxPayload).
	MaxPayload int
	// TenantInflight caps the in-flight requests per tenant class (the
	// client IP); excess requests are rejected with StatusOverloaded.
	// 0 disables admission control.
	TenantInflight int
	// RouteByRequest spreads each connection's requests across the ring
	// by mixing the request id into the routing key; the default routes
	// by connection, keeping one client's stream on one backend.
	RouteByRequest bool
	// HealthInterval is the active health-probe period (0 = 1s);
	// HealthTimeout bounds one probe (0 = 1s).
	HealthInterval, HealthTimeout time.Duration
	// FailAfter consecutive failures eject a backend; ReadmitAfter
	// consecutive successful probes readmit it (0 = 2 each).
	FailAfter, ReadmitAfter int
	// ReadTimeout is the per-connection idle limit between requests;
	// WriteTimeout bounds each response write (0 = none). Deadlines are
	// re-armed lazily (see server.Deadline): a connection idle for less
	// than 7/8·ReadTimeout is never cut and one idle for ReadTimeout
	// always is; likewise a write blocked for less than 7/8·WriteTimeout
	// is never cut and one blocked for WriteTimeout is.
	ReadTimeout, WriteTimeout time.Duration
	// TraceEvery self-samples one in every TraceEvery untraced requests
	// as a new root trace (0 = never). Requests that arrive with their
	// own trace context are honored regardless, so a traced gfload run
	// needs no proxy configuration.
	TraceEvery int
	// TraceRing caps the proxy's own distributed-trace span ring served
	// (merged with the backends') at /tracez (0 = trace.DefaultRingSize).
	TraceRing int
	// SLO, when non-nil, receives every completed request's end-to-end
	// latency keyed by (op, tenant) for error-budget accounting.
	SLO *obs.SLO
	// WideLog, when non-nil, emits one structured wide event per
	// completed request: always for trace-sampled requests, plus one in
	// every WideEvery untraced completions (WideEvery 0 logs sampled
	// requests only).
	WideLog   *slog.Logger
	WideEvery int
	// Logf, when set, receives proxy-level diagnostics.
	Logf func(format string, args ...any)
}

func (c Config) withDefaults() Config {
	if c.Replicas <= 0 {
		c.Replicas = defaultReplicas
	}
	if c.Retries == 0 {
		c.Retries = 2
	}
	if c.DialWait <= 0 {
		c.DialWait = time.Second
	}
	if c.ForwardTimeout <= 0 {
		c.ForwardTimeout = 30 * time.Second
	}
	if c.Window <= 0 {
		c.Window = 32
	}
	if c.MaxPayload <= 0 {
		c.MaxPayload = server.DefaultMaxPayload
	}
	if c.HealthInterval <= 0 {
		c.HealthInterval = time.Second
	}
	if c.HealthTimeout <= 0 {
		c.HealthTimeout = time.Second
	}
	if c.FailAfter <= 0 {
		c.FailAfter = 2
	}
	if c.ReadmitAfter <= 0 {
		c.ReadmitAfter = 2
	}
	return c
}

// proxyCounters is the proxy-level ledger. Like the backend server's, it
// is exact and disjoint: every framed request terminates as exactly one
// of responses (an OK reply hit the wire), rejects (an error-status
// reply hit the wire — including proxy-origin overload/unavailable) or
// dropped (connection died first), so
//
//	requests == responses + rejects + dropped
//
// once the proxy quiesces. retries and backendFailures sit outside the
// ledger (they count forward attempts, not client requests).
type proxyCounters struct {
	connsAccepted atomic.Int64
	connsActive   atomic.Int64
	requests      atomic.Int64
	responses     atomic.Int64
	rejects       atomic.Int64
	dropped       atomic.Int64
	protoErrors   atomic.Int64
	retries       atomic.Int64
	backendFails  atomic.Int64
	admRejects    atomic.Int64
	ejections     atomic.Int64
	readmits      atomic.Int64
	bytesIn       atomic.Int64
	bytesOut      atomic.Int64
}

// Proxy is the GFP1 routing front door. Construct with New, run with
// Serve (or ListenAndServe), stop with Shutdown.
type Proxy struct {
	cfg      Config
	ring     *ring
	backends []*backend
	adm      *admission
	hc       *health

	mu       sync.Mutex
	ln       net.Listener
	conns    map[*pconn]struct{}
	serving  bool
	draining bool

	readerWG  sync.WaitGroup
	handlerWG sync.WaitGroup

	ctr proxyCounters

	spans     *trace.Ring // proxy-hop spans for /tracez
	traceTick atomic.Uint64
	wideTick  atomic.Uint64
	opLat     [proxyOpSlots]perf.Hist
	opEx      [proxyOpSlots]obs.Exemplar
}

// proxyOpSlots sizes the per-op latency arrays: ops are small
// contiguous protocol constants (1..9), indexed directly.
const proxyOpSlots = 10

// New builds the proxy: the consistent-hash ring over the configured
// backends (each backend's connection is dialed on first use), the
// admission table, and the active health checker (which starts probing
// immediately, so a dead backend is ejected before the first client
// request routes to it).
func New(cfg Config) (*Proxy, error) {
	cfg = cfg.withDefaults()
	if len(cfg.Backends) == 0 {
		return nil, errors.New("cluster: no backends configured")
	}
	if len(cfg.Backends) > 64 {
		return nil, fmt.Errorf("cluster: %d backends exceeds the 64-backend ring limit", len(cfg.Backends))
	}
	addrs := make([]string, len(cfg.Backends))
	for i, spec := range cfg.Backends {
		if spec.Addr == "" {
			return nil, fmt.Errorf("cluster: backend %d has an empty address", i)
		}
		addrs[i] = spec.Addr
	}
	r, err := newRing(addrs, cfg.Replicas)
	if err != nil {
		return nil, err
	}
	p := &Proxy{
		cfg:   cfg,
		ring:  r,
		adm:   newAdmission(cfg.TenantInflight),
		conns: make(map[*pconn]struct{}),
		spans: trace.NewRing(cfg.TraceRing),
	}
	p.backends = make([]*backend, len(cfg.Backends))
	for i, spec := range cfg.Backends {
		p.backends[i] = newBackend(i, spec, cfg.DialWait)
	}
	p.hc = newHealth(p, cfg.HealthInterval, cfg.HealthTimeout, cfg.FailAfter, cfg.ReadmitAfter)
	return p, nil
}

func (p *Proxy) logf(format string, args ...any) {
	if p.cfg.Logf != nil {
		p.cfg.Logf(format, args...)
	}
}

// ListenAndServe listens on addr and calls Serve.
func (p *Proxy) ListenAndServe(addr string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	return p.Serve(ln)
}

// Serve accepts client connections on ln until Shutdown (which closes
// ln) or a listener failure. It returns nil after a clean Shutdown.
func (p *Proxy) Serve(ln net.Listener) error {
	p.mu.Lock()
	if p.draining {
		p.mu.Unlock()
		ln.Close()
		return nil
	}
	if p.serving {
		p.mu.Unlock()
		ln.Close()
		return errors.New("cluster: Serve called twice")
	}
	p.serving = true
	p.ln = ln
	p.mu.Unlock()

	for {
		nc, err := ln.Accept()
		if err != nil {
			p.mu.Lock()
			draining := p.draining
			p.mu.Unlock()
			if draining {
				return nil
			}
			return err
		}
		p.startConn(nc)
	}
}

// Addr returns the listener address once Serve has been called (nil
// before).
func (p *Proxy) Addr() net.Addr {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.ln == nil {
		return nil
	}
	return p.ln.Addr()
}

// Shutdown gracefully stops the proxy: the listener closes, every
// connection finishes reading its current request, all in-flight
// forwards complete and their responses flush, then connections close.
// If ctx expires first, remaining connections are cut and ctx.Err() is
// returned. The health checker stops in either case.
func (p *Proxy) Shutdown(ctx context.Context) error {
	p.mu.Lock()
	already := p.draining
	p.draining = true
	if p.ln != nil {
		p.ln.Close()
	}
	for c := range p.conns {
		c.nc.SetReadDeadline(time.Now())
	}
	p.mu.Unlock()
	if already {
		return errors.New("cluster: Shutdown called twice")
	}

	done := make(chan struct{})
	go func() {
		defer close(done)
		p.readerWG.Wait()  // no new requests framed
		p.handlerWG.Wait() // every in-flight forward answered or dropped
		p.closeConns()
		p.hc.Close()
		for _, b := range p.backends {
			b.closeClient()
		}
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		p.mu.Lock()
		for c := range p.conns {
			c.fail()
		}
		p.mu.Unlock()
		<-done
		return ctx.Err()
	}
}

func (p *Proxy) closeConns() {
	p.mu.Lock()
	conns := make([]*pconn, 0, len(p.conns))
	for c := range p.conns {
		conns = append(conns, c)
	}
	p.mu.Unlock()
	for _, c := range conns {
		c.fail()
	}
}

func (p *Proxy) isDraining() bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.draining
}

// healthyBackends counts ring members currently admitted.
func (p *Proxy) healthyBackends() int {
	n := 0
	for _, b := range p.backends {
		if b.healthy() {
			n++
		}
	}
	return n
}

// armRead re-arms the idle read deadline for the next request when
// due, unless draining (Shutdown's deadline kick must stay in force).
func (p *Proxy) armRead(c *pconn) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.draining {
		return false
	}
	c.rd.Arm(c.nc.SetReadDeadline, p.cfg.ReadTimeout)
	return true
}

// pconn is one client connection through the proxy.
type pconn struct {
	p      *Proxy
	nc     net.Conn
	sem    chan struct{} // window slots, held from read to response write
	dead   chan struct{}
	tenant *tenant
	host   string // remote host, the SLO/wide-event tenant key
	key    uint64 // connection routing key

	failOnce sync.Once
	rd       server.Deadline // armed only by the read loop

	writers atomic.Int32 // response writers holding or waiting for wmu
	wmu     sync.Mutex   // serializes response writes
	bw      *bufio.Writer
	broken  bool
	wd      server.Deadline
}

func (p *Proxy) startConn(nc net.Conn) {
	host, _, err := net.SplitHostPort(nc.RemoteAddr().String())
	if err != nil {
		host = nc.RemoteAddr().String()
	}
	c := &pconn{
		p:      p,
		nc:     nc,
		bw:     bufio.NewWriterSize(nc, 64<<10),
		sem:    make(chan struct{}, p.cfg.Window),
		dead:   make(chan struct{}),
		tenant: p.adm.lookup(host),
		host:   host,
		key:    hashKey("conn:" + nc.RemoteAddr().String()),
	}
	p.mu.Lock()
	if p.draining {
		p.mu.Unlock()
		nc.Close()
		return
	}
	p.conns[c] = struct{}{}
	p.readerWG.Add(1)
	p.mu.Unlock()
	p.ctr.connsAccepted.Add(1)
	p.ctr.connsActive.Add(1)
	go c.readLoop()
}

// fail tears the connection down; the closed socket unblocks the reader
// and poisons subsequent writes.
func (c *pconn) fail() {
	c.failOnce.Do(func() {
		close(c.dead)
		c.nc.Close()
	})
}

func (c *pconn) remove() {
	c.p.mu.Lock()
	delete(c.p.conns, c)
	c.p.mu.Unlock()
	c.p.ctr.connsActive.Add(-1)
}

// readLoop frames client requests and hands each to a handler goroutine
// bounded by the connection window and the tenant's admission budget.
func (c *pconn) readLoop() {
	defer c.p.readerWG.Done()
	defer c.remove()
	defer c.fail()
	br := bufio.NewReaderSize(c.nc, 64<<10)
	for {
		if !c.p.armRead(c) {
			return // draining: stop intake; handlers finish and flush
		}
		m, err := server.ReadRequest(br, c.p.cfg.MaxPayload)
		if err != nil {
			if c.p.isDraining() {
				return
			}
			var pe *server.ProtoError
			if errors.As(err, &pe) {
				c.p.ctr.protoErrors.Add(1)
				c.write(&server.Message{Status: pe.Status, Payload: []byte(pe.Error())}, false)
				return
			}
			if !errors.Is(err, io.EOF) {
				c.p.logf("cluster: read from %v: %v", c.nc.RemoteAddr(), err)
			}
			return
		}
		readAt := time.Now()
		c.p.ctr.requests.Add(1)
		c.p.ctr.bytesIn.Add(int64(server.HeaderSize + len(m.Params) + len(m.Payload)))
		tc := c.extractTrace(m)

		// Window slot: a client pipelining beyond its window waits here.
		select {
		case c.sem <- struct{}{}:
		case <-c.dead:
			c.p.ctr.dropped.Add(1)
			return
		}
		// Admission: over-budget tenants are answered immediately, not
		// queued.
		if !c.p.adm.acquire(c.tenant) {
			c.p.ctr.admRejects.Add(1)
			c.write(&server.Message{Op: m.Op, Status: server.StatusOverloaded, ID: m.ID,
				Payload: []byte("tenant in-flight limit exceeded")}, true)
			<-c.sem
			c.p.finishRequest(c, tc, c.mintSpan(tc), m.Op, readAt, server.StatusOverloaded, fwdInfo{})
			continue
		}
		c.p.handlerWG.Add(1)
		go c.handle(m, tc, readAt)
	}
}

// extractTrace strips an incoming trace-context extension off m (the
// stripped message is what forward re-injects per attempt, each with a
// fresh span id), or self-samples one in every TraceEvery untraced
// requests as a new root trace. A malformed extension downgrades the
// request to untraced; it never rejects it.
func (c *pconn) extractTrace(m *server.Message) trace.Context {
	if m.Flags&server.FlagTraced != 0 {
		m.Flags &^= server.FlagTraced
		if tc, rest, ok := trace.Extract(m.Params); ok {
			m.Params = rest
			return tc
		}
		return trace.Context{}
	}
	if every := uint64(c.p.cfg.TraceEvery); every > 0 && c.p.traceTick.Add(1)%every == 0 {
		return trace.Context{Trace: trace.NewID(), Sampled: true}
	}
	return trace.Context{}
}

// mintSpan returns a fresh span id for a sampled context, 0 otherwise.
func (c *pconn) mintSpan(tc trace.Context) uint64 {
	if !tc.Sampled {
		return 0
	}
	return trace.NewID()
}

// handle forwards one request and writes its response.
func (c *pconn) handle(m *server.Message, tc trace.Context, readAt time.Time) {
	defer c.p.handlerWG.Done()
	span := c.mintSpan(tc)
	resp, fwd := c.p.forward(m, c.routeKey(m), tc, span)
	c.p.adm.release(c.tenant)
	c.write(resp, true)
	<-c.sem
	c.p.finishRequest(c, tc, span, m.Op, readAt, resp.Status, fwd)
}

// routeKey is the consistent-hash key for a request: the connection key
// alone (default, keeping a client's stream on one backend), or mixed
// with the request id to spread a single connection across the fleet.
func (c *pconn) routeKey(m *server.Message) uint64 {
	if !c.p.cfg.RouteByRequest {
		return c.key
	}
	return mix64(c.key ^ (m.ID + 0x9e3779b97f4a7c15))
}

// mix64 is the splitmix64 finalizer — full avalanche, so consecutive
// request ids land uniformly on the ring.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// fwdInfo summarizes one request's routing outcome for the trace/SLO
// books: attempts made, retries among them, and the backend that
// answered (empty when none did).
type fwdInfo struct {
	attempts, retries int
	backend           string
}

// forward routes one request to the fleet and returns the response to
// relay. The backend preference order is the ring walk from the routing
// key, healthy backends first and ejected ones as a last resort; a
// transport failure moves to the next backend when the op is idempotent,
// and a backend that refused the request unprocessed (RetrySafe) is
// retried for any op. Each failure feeds the passive health signal.
//
// A sampled trace context is re-injected per attempt under a fresh span
// id (same trace id — a retried request stays one trace), parented on
// routeSpan, and each attempt records a forward span with its backend
// and outcome.
func (p *Proxy) forward(m *server.Message, key uint64, tc trace.Context, routeSpan uint64) (*server.Message, fwdInfo) {
	var seqBuf [64]int
	seq := p.ring.sequence(key, seqBuf[:])

	// Healthy backends in ring order, then ejected ones: when the whole
	// fleet is ejected the proxy still tries (the probe interval may
	// simply not have observed a recovery yet) rather than failing fast
	// into a dead cluster.
	var order []int
	for _, bi := range seq {
		if p.backends[bi].healthy() {
			order = append(order, bi)
		}
	}
	for _, bi := range seq {
		if !p.backends[bi].healthy() {
			order = append(order, bi)
		}
	}

	maxAttempts := 1 + p.cfg.Retries
	fwd := fwdInfo{}
	var lastErr error
	for _, bi := range order {
		if fwd.attempts >= maxAttempts {
			break
		}
		fwd.attempts++
		b := p.backends[bi]
		b.forwards.Add(1)
		// Re-inject the trace context per attempt: a copy of the message
		// gets the extension appended (append copies the capacity-pinned
		// params, so the original stays pristine for the next attempt).
		am := m
		var attemptStart time.Time
		var attemptSpan uint64
		if tc.Sampled {
			attemptSpan = trace.NewID()
			cp := *m
			server.AttachTrace(&cp, trace.Context{Trace: tc.Trace, Span: attemptSpan, Sampled: true})
			am = &cp
			attemptStart = time.Now()
		}
		resp, err := p.callBackend(b, am)
		if tc.Sampled {
			p.recordForwardSpan(tc, attemptSpan, routeSpan, m.Op, b.spec.Addr,
				fwd.attempts, attemptStart, resp, err)
		}
		if err == nil {
			p.hc.noteSuccess(b)
			if resp.Status.RetrySafe() && fwd.attempts < maxAttempts {
				// Backend draining: it rejected the request unprocessed, so
				// replaying elsewhere is safe for every op.
				p.ctr.retries.Add(1)
				fwd.retries++
				continue
			}
			fwd.backend = b.spec.Addr
			return resp, fwd
		}
		lastErr = err
		b.failures.Add(1)
		p.ctr.backendFails.Add(1)
		p.hc.noteFailure(b, err)
		if m.Op.Idempotent() && fwd.attempts < maxAttempts {
			p.ctr.retries.Add(1)
			fwd.retries++
			continue
		}
		break
	}
	msg := "no healthy backend"
	if lastErr != nil {
		msg = fmt.Sprintf("backend unavailable after %d attempt(s): %v", fwd.attempts, lastErr)
		if !m.Op.Idempotent() {
			msg += fmt.Sprintf(" (%v is not idempotent: not retried)", m.Op)
		}
	}
	return &server.Message{Op: m.Op, Status: server.StatusUnavailable, ID: m.ID, Payload: []byte(msg)}, fwd
}

// recordForwardSpan records one forward attempt's span: parented on the
// proxy-route span, and itself the parent of the backend's request span
// (the backend received attemptSpan as its trace context's parent).
func (p *Proxy) recordForwardSpan(tc trace.Context, attemptSpan, routeSpan uint64,
	op server.Op, backendAddr string, attempt int, start time.Time,
	resp *server.Message, err error) {
	attrs := map[string]string{
		"backend": backendAddr,
		"attempt": strconv.Itoa(attempt),
	}
	status := ""
	switch {
	case err != nil:
		status = "transport-failure"
		attrs["error"] = err.Error()
	case resp.Status != server.StatusOK:
		status = resp.Status.String()
	}
	p.spans.Add(trace.Span{
		Trace: trace.FormatID(tc.Trace), ID: trace.FormatID(attemptSpan),
		Parent:  trace.FormatID(routeSpan),
		Service: "gfproxy", Name: "forward", Op: op.String(),
		StartUnixNs: start.UnixNano(), DurNs: time.Since(start).Nanoseconds(),
		Status: status, Attrs: attrs,
	})
}

// finishRequest closes the observability books on one proxied request:
// per-op latency (with a trace exemplar), SLO accounting, the
// proxy-route span, and the wide event.
func (p *Proxy) finishRequest(c *pconn, tc trace.Context, span uint64,
	op server.Op, readAt time.Time, st server.Status, fwd fwdInfo) {
	now := time.Now()
	lat := now.Sub(readAt)
	if int(op) < len(p.opLat) {
		p.opLat[op].Observe(lat)
		if tc.Sampled {
			p.opEx[op].Record(tc.Trace, int64(lat))
		}
	}
	p.cfg.SLO.Observe(op.String(), c.host, lat)
	if tc.Sampled {
		status := ""
		if st != server.StatusOK {
			status = st.String()
		}
		parent := ""
		if tc.Span != 0 {
			parent = trace.FormatID(tc.Span)
		}
		attrs := map[string]string{
			"attempts": strconv.Itoa(fwd.attempts),
			"retries":  strconv.Itoa(fwd.retries),
			"tenant":   c.host,
		}
		if fwd.backend != "" {
			attrs["backend"] = fwd.backend
		}
		p.spans.Add(trace.Span{
			Trace: trace.FormatID(tc.Trace), ID: trace.FormatID(span), Parent: parent,
			Service: "gfproxy", Name: "proxy-route", Op: op.String(),
			StartUnixNs: readAt.UnixNano(), DurNs: lat.Nanoseconds(),
			Status: status, Attrs: attrs,
		})
	}
	p.wideEvent(c, tc, span, op, st, lat, fwd)
}

// wideEvent emits the one-line structured record of a completed
// request: every trace-sampled request, plus one in every WideEvery
// untraced completions.
func (p *Proxy) wideEvent(c *pconn, tc trace.Context, span uint64,
	op server.Op, st server.Status, lat time.Duration, fwd fwdInfo) {
	lg := p.cfg.WideLog
	if lg == nil {
		return
	}
	if !tc.Sampled {
		every := uint64(p.cfg.WideEvery)
		if every == 0 || p.wideTick.Add(1)%every != 0 {
			return
		}
	}
	attrs := []slog.Attr{
		slog.String("service", "gfproxy"),
		slog.String("op", op.String()),
		slog.String("tenant", c.host),
		slog.String("status", st.String()),
		slog.Int("attempts", fwd.attempts),
		slog.Int("retries", fwd.retries),
		slog.Int64("latency_ns", int64(lat)),
	}
	if fwd.backend != "" {
		attrs = append(attrs, slog.String("backend", fwd.backend))
	}
	if tc.Sampled {
		attrs = append(attrs,
			slog.String("trace", trace.FormatID(tc.Trace)),
			slog.String("span", trace.FormatID(span)))
	}
	lg.LogAttrs(context.Background(), slog.LevelInfo, "request", attrs...)
}

// callBackend performs one forward attempt on the backend's shared
// connection, bounded by ForwardTimeout. A nil error means the backend
// answered — possibly with an error status, which the caller relays or
// retries by its own rules; a non-nil error is a transport failure
// (dial, connection loss, or a call abandoned at the timeout).
func (p *Proxy) callBackend(b *backend, m *server.Message) (*server.Message, error) {
	cl, err := b.client()
	if err != nil {
		return nil, err
	}
	// DoTimeout (not Call) preserves the trace flag and extension the
	// forward path injected into the attempt message.
	rm, err := cl.DoTimeout(&server.Message{Op: m.Op, Flags: m.Flags, Params: m.Params, Payload: m.Payload},
		p.cfg.ForwardTimeout)
	var se *server.StatusError
	if err != nil && !errors.As(err, &se) {
		return nil, err
	}
	// An error status is a processed outcome, not a transport failure:
	// relay it.
	return &server.Message{Op: rm.Op, Status: rm.Status, ID: m.ID, Payload: rm.Payload}, nil
}

// write serializes one response onto the client socket. ledgered
// responses are accounted as exactly one of responses/rejects/dropped.
// Concurrent writers share a flush: the last one through wmu flushes the
// responses the others left in the buffer. An unledgered (conn-fatal)
// reply always flushes, since the connection closes right after it.
func (c *pconn) write(m *server.Message, ledgered bool) {
	c.writers.Add(1)
	c.wmu.Lock()
	defer c.wmu.Unlock()
	last := c.writers.Add(-1) == 0
	if c.broken {
		if ledgered {
			c.p.ctr.dropped.Add(1)
		}
		return
	}
	c.wd.Arm(c.nc.SetWriteDeadline, c.p.cfg.WriteTimeout)
	err := server.WriteResponse(c.bw, m)
	if err == nil && (last || !ledgered) {
		err = c.bw.Flush()
	}
	if err != nil {
		c.broken = true
		if ledgered {
			c.p.ctr.dropped.Add(1)
		}
		c.p.logf("cluster: write to %v: %v", c.nc.RemoteAddr(), err)
		c.fail()
		return
	}
	if ledgered {
		if m.Status == server.StatusOK {
			c.p.ctr.responses.Add(1)
		} else {
			c.p.ctr.rejects.Add(1)
		}
	}
	c.p.ctr.bytesOut.Add(int64(server.HeaderSize + len(m.Params) + len(m.Payload)))
}
