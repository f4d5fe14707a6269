package cluster

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"strconv"
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
	// re-armed lazily: a connection idle for less than 7/8·ReadTimeout
	// is never cut and one idle for ReadTimeout always is; likewise a
	// write blocked for less than 7/8·WriteTimeout is never cut and one
	// blocked for WriteTimeout is.
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

// proxyCounters are the proxy's counters outside the request ledger
// its Front keeps (see ProxyCounters): retries and backendFailures
// count forward attempts, not client requests.
type proxyCounters struct {
	retries      atomic.Int64
	backendFails atomic.Int64
	admRejects   atomic.Int64
	ejections    atomic.Int64
	readmits     atomic.Int64
}

// Proxy is the GFP1 routing front door. Construct with New, run with
// Serve (or ListenAndServe), stop with Shutdown. Its client connections
// run on the embedded server.Front, as a gfserved's do.
type Proxy struct {
	*server.Front
	cfg      Config
	ring     *ring
	backends []*backend
	adm      *admission
	hc       *health

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
//
// Shutdown drains the client connections: every request already read is
// forwarded and answered before they close. If its ctx expires first,
// they are cut at once. Either way the health checker then stops and the
// backend connections close, so forwards still held fail and start no
// new attempt.
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
		spans: trace.NewRing(cfg.TraceRing),
	}
	p.Front = server.NewFront("cluster", server.Config{
		Window: cfg.Window, MaxPayload: cfg.MaxPayload,
		ReadTimeout: cfg.ReadTimeout, WriteTimeout: cfg.WriteTimeout,
		Logf: cfg.Logf,
	}, p.open, p.stop)
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

// stop runs once Shutdown has drained or cut the client connections.
func (p *Proxy) stop() {
	p.hc.Close()
	// Every backend is marked down before any connection closes, so a
	// forward failed by the close finds no backend to retry on.
	for _, b := range p.backends {
		b.shut()
	}
	for _, b := range p.backends {
		b.closeClient()
	}
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

// pconn is the proxy's state for one client connection: its admission
// tenant and routing key.
type pconn struct {
	p      *Proxy
	c      *server.Conn
	tenant *tenant
	key    uint64 // connection routing key
}

// open returns the handler for one client connection's requests.
func (p *Proxy) open(c *server.Conn) server.Handler {
	pc := &pconn{
		p:      p,
		c:      c,
		tenant: p.adm.lookup(c.Host()),
		key:    hashKey("conn:" + c.RemoteAddr().String()),
	}
	return pc.handle
}

// handle answers a tenant over its admission budget at once, and hands
// any other request to a goroutine of its own that forwards it.
func (pc *pconn) handle(m *server.Message, readAt time.Time) {
	p := pc.p
	r := &preq{pc: pc, op: m.Op, readAt: readAt, tc: p.extractTrace(m)}
	if r.tc.Sampled {
		r.span = trace.NewID()
	}
	if !p.adm.acquire(pc.tenant) {
		p.ctr.admRejects.Add(1)
		pc.c.Send(server.Reply{Msg: &server.Message{Op: m.Op, Status: server.StatusOverloaded, ID: m.ID,
			Payload: []byte("tenant in-flight limit exceeded")}, Done: r})
		return
	}
	go r.forward(m)
}

// preq is one proxied request: its trace context and hop span, and how
// its forward went, for the books Finish closes.
type preq struct {
	pc     *pconn
	op     server.Op
	readAt time.Time
	tc     trace.Context
	span   uint64 // the proxy-route span id (sampled requests only)
	fwd    fwdInfo
}

// forward routes the request to the fleet and sends the reply; Send
// runs the connection's flusher here when none is running, since this
// goroutine may wait on the client socket.
func (r *preq) forward(m *server.Message) {
	p := r.pc.p
	resp, fwd := p.forward(m, r.pc.routeKey(m), r.tc, r.span)
	r.fwd = fwd
	p.adm.release(r.pc.tenant)
	r.pc.c.Send(server.Reply{Msg: resp, Done: r})
}

// Finish closes the request's books once its reply is written out or
// dropped.
func (r *preq) Finish(st server.Status, written bool) {
	r.pc.p.finishRequest(r, st)
}

// extractTrace strips an incoming trace-context extension off m (the
// stripped message is what forward re-injects per attempt, each with a
// fresh span id), or self-samples one in every TraceEvery untraced
// requests as a new root trace. A malformed extension downgrades the
// request to untraced; it never rejects it.
func (p *Proxy) extractTrace(m *server.Message) trace.Context {
	if m.Flags&server.FlagTraced != 0 {
		m.Flags &^= server.FlagTraced
		if tc, rest, ok := trace.Extract(m.Params); ok {
			m.Params = rest
			return tc
		}
		return trace.Context{}
	}
	if every := uint64(p.cfg.TraceEvery); every > 0 && p.traceTick.Add(1)%every == 0 {
		return trace.Context{Trace: trace.NewID(), Sampled: true}
	}
	return trace.Context{}
}

// routeKey is the consistent-hash key for a request: the connection key
// alone (default, keeping a client's stream on one backend), or mixed
// with the request id to spread a single connection across the fleet.
func (pc *pconn) routeKey(m *server.Message) uint64 {
	if !pc.p.cfg.RouteByRequest {
		return pc.key
	}
	return mix64(pc.key ^ (m.ID + 0x9e3779b97f4a7c15))
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
		b := p.backends[bi]
		if fwd.attempts >= maxAttempts || b.down.Load() {
			break // out of attempts, or shut down: no new attempt
		}
		if fwd.attempts > 0 {
			p.ctr.retries.Add(1)
			fwd.retries++
		}
		fwd.attempts++
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
func (p *Proxy) finishRequest(r *preq, st server.Status) {
	now := time.Now()
	lat := now.Sub(r.readAt)
	host := r.pc.c.Host()
	if int(r.op) < len(p.opLat) {
		p.opLat[r.op].Observe(lat)
		if r.tc.Sampled {
			p.opEx[r.op].Record(r.tc.Trace, int64(lat))
		}
	}
	p.cfg.SLO.Observe(r.op.String(), host, lat)
	if r.tc.Sampled {
		status := ""
		if st != server.StatusOK {
			status = st.String()
		}
		parent := ""
		if r.tc.Span != 0 {
			parent = trace.FormatID(r.tc.Span)
		}
		attrs := map[string]string{
			"attempts": strconv.Itoa(r.fwd.attempts),
			"retries":  strconv.Itoa(r.fwd.retries),
			"tenant":   host,
		}
		if r.fwd.backend != "" {
			attrs["backend"] = r.fwd.backend
		}
		p.spans.Add(trace.Span{
			Trace: trace.FormatID(r.tc.Trace), ID: trace.FormatID(r.span), Parent: parent,
			Service: "gfproxy", Name: "proxy-route", Op: r.op.String(),
			StartUnixNs: r.readAt.UnixNano(), DurNs: lat.Nanoseconds(),
			Status: status, Attrs: attrs,
		})
	}
	p.wideEvent(r, host, st, lat)
}

// wideEvent emits the one-line structured record of a completed
// request: every trace-sampled request, plus one in every WideEvery
// untraced completions.
func (p *Proxy) wideEvent(r *preq, host string, st server.Status, lat time.Duration) {
	lg := p.cfg.WideLog
	if lg == nil {
		return
	}
	if !r.tc.Sampled {
		every := uint64(p.cfg.WideEvery)
		if every == 0 || p.wideTick.Add(1)%every != 0 {
			return
		}
	}
	attrs := []slog.Attr{
		slog.String("service", "gfproxy"),
		slog.String("op", r.op.String()),
		slog.String("tenant", host),
		slog.String("status", st.String()),
		slog.Int("attempts", r.fwd.attempts),
		slog.Int("retries", r.fwd.retries),
		slog.Int64("latency_ns", int64(lat)),
	}
	if r.fwd.backend != "" {
		attrs = append(attrs, slog.String("backend", r.fwd.backend))
	}
	if r.tc.Sampled {
		attrs = append(attrs,
			slog.String("trace", trace.FormatID(r.tc.Trace)),
			slog.String("span", trace.FormatID(r.span)))
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
