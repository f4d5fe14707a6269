package server

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/aes"
	"repro/internal/gf"
	"repro/internal/obs"
	"repro/internal/obs/trace"
	"repro/internal/perf"
	"repro/internal/pipeline"
	"repro/internal/rs"
)

// demoKey is the AES-128 key used when Config.Key is empty — the same
// well-known demo key the gfpipe loopback driver uses. Real deployments
// must supply their own key.
var demoKey = []byte("gfpipe-demo-key!")

// Config sizes and parameterizes a Server. The codec knobs mirror
// cmd/gfpipe: one RS(n,k) code over GF(2^8), interleaved to the given
// depth, plus an AES-GCM instance for the seal/open ops.
type Config struct {
	// N, K, Depth select the RS code and interleaving depth. Zero values
	// default to RS(255,239) at depth 1.
	N, K, Depth int
	// Batch is the maximum number of interleaver frames a single RS
	// request may pack (its payload then being a multiple of the frame
	// unit, up to Batch units). 1 (the default) keeps the strict
	// one-frame-per-request contract; each request is still one pipeline
	// frame and one window slot regardless of its width.
	Batch int
	// Workers and Queue size the shared pipeline (see pipeline.Config).
	Workers, Queue int
	// Key is the AES key for the seal/open ops (empty selects a
	// well-known demo key). AAD is bound into every tag (may be nil).
	Key, AAD []byte
	// Curve selects the binary curve for the ECC ops ("" means
	// DefaultCurve; CurveOff disables them). ECCKey, when set, seeds the
	// deterministic derivation of the service's private scalar; when
	// empty the scalar is derived from Key, so a fleet sharing Key (and
	// curve) shares the signing identity — the property that makes
	// ecdsa-sign retry-safe across backends.
	Curve  string
	ECCKey []byte
	// MaxPayload is the per-request payload guard (0 = DefaultMaxPayload).
	MaxPayload int
	// Window caps each connection's in-flight requests; a client
	// pipelining deeper simply blocks in its own socket (0 = 32).
	Window int
	// ReadTimeout is the per-connection idle limit between requests
	// (0 = no limit). WriteTimeout bounds each response write (0 = no
	// limit). Deadlines are re-armed lazily (see Deadline): a connection
	// idle for less than 7/8·ReadTimeout is never cut and one idle for
	// ReadTimeout always is; likewise a write blocked for less than
	// 7/8·WriteTimeout is never cut and one blocked for WriteTimeout is.
	ReadTimeout, WriteTimeout time.Duration
	// TraceEvery and TraceSlowest are read by nothing: the pipeline
	// measures every frame's queue wait and keeps no sampled frame
	// traces. They remain so existing callers still compile.
	//
	// Deprecated: no effect.
	TraceEvery, TraceSlowest int
	// TraceRing caps the distributed-trace span ring served at /tracez
	// (0 = trace.DefaultRingSize). Spans are recorded only for requests
	// arriving with a sampled trace context, so the ring costs nothing
	// under untraced load.
	TraceRing int
	// SLO, when non-nil, receives every pipeline-served request's
	// end-to-end latency keyed by (op, tenant) — tenant being the
	// client's remote host — for error-budget accounting (obs.NewSLO).
	SLO *obs.SLO
	// WideLog, when non-nil, emits one structured wide event per
	// completed request: always for trace-sampled requests, plus one in
	// every WideEvery untraced completions (WideEvery 0 logs sampled
	// requests only).
	WideLog   *slog.Logger
	WideEvery int
	// Logf, when set, receives connection-level diagnostics.
	Logf func(format string, args ...any)
}

func (c Config) withDefaults() Config {
	if c.N == 0 && c.K == 0 {
		c.N, c.K = 255, 239
	}
	if c.Depth == 0 {
		c.Depth = 1
	}
	if len(c.Key) == 0 {
		c.Key = demoKey
	}
	if c.Batch <= 0 {
		c.Batch = 1
	}
	if c.MaxPayload <= 0 {
		c.MaxPayload = DefaultMaxPayload
	}
	if c.Window <= 0 {
		c.Window = 32
	}
	return c
}

// Server is the network-facing codec service. Construct with New, run
// with Serve (or ListenAndServe), stop with Shutdown.
type Server struct {
	cfg Config
	iv  *rs.Interleaved
	pl  *pipeline.Pipeline
	run *pipeline.Run

	mu       sync.Mutex
	ln       net.Listener
	conns    map[*conn]struct{}
	draining bool
	serving  bool

	readerWG sync.WaitGroup // connection read loops
	writerWG sync.WaitGroup // connection write loops
	inflight sync.WaitGroup // frames submitted but not yet routed

	st  selftest
	ctr counters
	ecc *eccService // nil when Config.Curve is CurveOff
	// ghash names the GHASH multiply the GCM instance runs, and aes
	// its block encrypt.
	ghash, aes string

	spans    *trace.Ring           // /tracez distributed-trace span ring
	opLat    [opLatSlots]perf.Hist // end-to-end latency per op
	opEx     [opLatSlots]obs.Exemplar
	wideTick atomic.Uint64 // 1/WideEvery sampler for untraced wide events
}

// opLatSlots sizes the per-op latency arrays: ops are small contiguous
// protocol constants (1..9), indexed directly.
const opLatSlots = 10

// pendingReq rides pipeline.Frame.Tag from submission to delivery: the
// connection and request id a completed frame's response belongs to,
// plus the request's trace context and hop timestamps, closed out by
// finishRequest when the response hits (or misses) the wire.
type pendingReq struct {
	c  *conn
	op Op
	id uint64

	tc   trace.Context // zero when the request carried no trace context
	span uint64        // this hop's request-span id (sampled requests only)

	read      time.Time // request framed off the socket
	submitted time.Time // frame entered the shared pipeline
	// started and routed bound a sampled request's stage span: a worker
	// began the op, and the reply was routed to the connection's write
	// queue as the stage returned. Unsampled requests leave them zero.
	// The worker writes them; the write-queue handoff orders its writes
	// before the write loop reads them.
	started, routed time.Time
}

// New builds the server: codec instances, the shared pipeline (one
// dispatch stage fanned out over Workers goroutines), and a started run
// ready to accept frames, delivering each reply from the worker that
// computed it.
func New(cfg Config) (*Server, error) {
	cfg = cfg.withDefaults()
	if cfg.N <= 0 || cfg.K <= 0 {
		return nil, fmt.Errorf("server: non-positive code parameters n=%d k=%d", cfg.N, cfg.K)
	}
	if cfg.K >= cfg.N {
		return nil, fmt.Errorf("server: k=%d must be below n=%d", cfg.K, cfg.N)
	}
	if cfg.Depth <= 0 {
		return nil, fmt.Errorf("server: non-positive interleave depth %d", cfg.Depth)
	}
	f8 := gf.MustDefault(8)
	code, err := rs.New(f8, cfg.N, cfg.K)
	if err != nil {
		return nil, err
	}
	iv, err := rs.NewInterleaved(code, cfg.Depth)
	if err != nil {
		return nil, err
	}
	enc, err := pipeline.NewRSFrameEncode(iv)
	if err != nil {
		return nil, err
	}
	dec, err := pipeline.NewRSFrameDecode(iv)
	if err != nil {
		return nil, err
	}
	cipher, err := aes.NewCipher(cfg.Key)
	if err != nil {
		return nil, err
	}
	eccSvc, err := newECCService(cfg)
	if err != nil {
		return nil, err
	}
	disp := &dispatchStage{enc: enc, dec: dec, gcm: cipher.NewGCM(), aad: cfg.AAD, ecc: eccSvc}
	pl, err := pipeline.New(pipeline.Config{Workers: cfg.Workers, Queue: cfg.Queue, Batch: cfg.Batch}, disp)
	if err != nil {
		return nil, err
	}
	s := &Server{
		cfg:   cfg,
		iv:    iv,
		pl:    pl,
		conns: make(map[*conn]struct{}),
		ecc:   eccSvc,
		ghash: disp.gcm.GHASHStrategy(),
		aes:   cipher.BlockStrategy(),
		spans: trace.NewRing(cfg.TraceRing),
	}
	s.run = pl.StartFunc(s.deliver)
	return s, nil
}

// Code returns the server's interleaved RS configuration.
func (s *Server) Code() *rs.Interleaved { return s.iv }

func (s *Server) logf(format string, args ...any) {
	if s.cfg.Logf != nil {
		s.cfg.Logf(format, args...)
	}
}

// ListenAndServe listens on addr and calls Serve.
func (s *Server) ListenAndServe(addr string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	return s.Serve(ln)
}

// Serve accepts connections on ln until Shutdown (which closes ln) or a
// listener failure. It returns nil after a clean Shutdown.
func (s *Server) Serve(ln net.Listener) error {
	s.mu.Lock()
	if s.draining {
		// Shutdown won the race to start: nothing to serve, cleanly.
		s.mu.Unlock()
		ln.Close()
		return nil
	}
	if s.serving {
		s.mu.Unlock()
		ln.Close()
		return errors.New("server: Serve called twice")
	}
	s.serving = true
	s.ln = ln
	s.mu.Unlock()

	for {
		nc, err := ln.Accept()
		if err != nil {
			s.mu.Lock()
			draining := s.draining
			s.mu.Unlock()
			if draining {
				return nil
			}
			return err
		}
		s.startConn(nc)
	}
}

// Addr returns the listener address once Serve has been called
// (nil before).
func (s *Server) Addr() net.Addr {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.ln == nil {
		return nil
	}
	return s.ln.Addr()
}

// startConn registers and launches one connection's read and write
// loops, unless the server is already draining.
func (s *Server) startConn(nc net.Conn) {
	tenant := nc.RemoteAddr().String()
	if host, _, err := net.SplitHostPort(tenant); err == nil {
		tenant = host
	}
	c := &conn{
		s:      s,
		nc:     nc,
		tenant: tenant,
		bw:     bufio.NewWriterSize(nc, 64<<10),
		writeq: make(chan outMsg, s.cfg.Window+1), // +1: one conn-fatal error reply past the window
		sem:    make(chan struct{}, s.cfg.Window),
		dead:   make(chan struct{}),
		lame:   make(chan struct{}),
		drain:  make(chan struct{}),
	}
	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		nc.Close()
		return
	}
	s.conns[c] = struct{}{}
	s.readerWG.Add(1)
	s.writerWG.Add(1)
	s.mu.Unlock()
	s.ctr.connsAccepted.Add(1)
	s.ctr.connsActive.Add(1)
	go c.readLoop()
	go c.writeLoop()
}

func (s *Server) removeConn(c *conn) {
	s.mu.Lock()
	delete(s.conns, c)
	s.mu.Unlock()
	s.ctr.connsActive.Add(-1)
}

// deliver routes one completed frame's response to its connection's
// write queue. It runs on the pipeline worker that computed the frame,
// as soon as the stage returns, so a reply waits for no other request.
// The per-connection window guarantees the queue has room, so deliver
// never blocks on a slow client — it drops the response only when the
// connection has already died.
func (s *Server) deliver(f *pipeline.Frame) {
	pr := f.Tag.(*pendingReq)
	if pr.tc.Sampled {
		pr.routed = time.Now()
	}
	var om outMsg
	if f.Err != nil {
		payload := []byte(f.Err.Error())
		f.Free()
		om = outMsg{m: &Message{Op: pr.op, Status: StatusCodecFailed, ID: pr.id, Payload: payload}, pr: pr}
	} else {
		// The response references the frame's (pool-backed) payload;
		// the writer frees the frame after the bytes hit the socket.
		om = outMsg{m: &Message{Op: pr.op, ID: pr.id, Payload: f.Data}, f: f, pr: pr}
	}
	switch pr.c.route(om) {
	case routeOK:
	case routeClosed:
		om.free()
		s.ctr.dropped.Add(1)
	case routeFull:
		// Window invariant broken — should be impossible. Kill the
		// connection rather than stall every other client.
		om.free()
		s.ctr.dropped.Add(1)
		s.logf("server: write queue overflow on %v (window invariant)", pr.c.nc.RemoteAddr())
		pr.c.fail()
	}
	s.inflight.Done()
}

// Shutdown gracefully stops the server: it stops accepting, lets every
// connection finish reading its current request, drains all in-flight
// frames through the pipeline, flushes every pending response, then
// closes the connections and returns. If ctx expires first, remaining
// connections are closed immediately and ctx.Err() is returned.
func (s *Server) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	already := s.draining
	s.draining = true
	if s.ln != nil {
		s.ln.Close()
	}
	// Kick blocked readers out of their socket reads; they observe
	// draining and stop instead of treating it as an idle timeout.
	for c := range s.conns {
		c.nc.SetReadDeadline(time.Now())
	}
	s.mu.Unlock()
	if already {
		return errors.New("server: Shutdown called twice")
	}

	done := make(chan struct{})
	go func() {
		defer close(done)
		s.readerWG.Wait()   // no more submissions
		s.inflight.Wait()   // every submitted frame routed to a write queue
		s.run.Close()       // idempotent; lets the pipeline workers exit
		s.run.Wait()        //
		s.closeConnsDrain() // writers flush their queues and close
		s.writerWG.Wait()
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		s.mu.Lock()
		for c := range s.conns {
			c.fail()
		}
		s.mu.Unlock()
		s.run.Close()
		return ctx.Err()
	}
}

func (s *Server) closeConnsDrain() {
	s.mu.Lock()
	defer s.mu.Unlock()
	for c := range s.conns {
		close(c.drain)
	}
}

// isDraining reports the shutdown flag.
func (s *Server) isDraining() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.draining
}

// armRead re-arms the connection's idle read deadline for the next
// request when due, unless the server is draining (in which case the
// deadline kick from Shutdown must stay in force). Returns false when
// draining.
func (s *Server) armRead(c *conn) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.draining {
		return false
	}
	c.rd.Arm(c.nc.SetReadDeadline, s.cfg.ReadTimeout)
	return true
}

// Deadline re-arms one deadline of a connection lazily: only once the
// armed deadline is more than an eighth of its limit old, which spares
// the runtime poller a timer update on nearly every request. An Arm at
// time t leaves the deadline between t+7/8·limit and t+limit. The zero
// value is ready to use; it is not safe for concurrent use.
type Deadline struct{ armed time.Time }

// Arm pushes the deadline out to limit from now through set (a
// net.Conn's SetReadDeadline or SetWriteDeadline) when the armed one is
// more than limit/8 old. It does nothing for limit 0 (no deadline).
func (d *Deadline) Arm(set func(time.Time) error, limit time.Duration) {
	if limit <= 0 {
		return
	}
	if now := time.Now(); now.Sub(d.armed) > limit/8 {
		set(now.Add(limit))
		d.armed = now
	}
}

// outMsg is one queued response. f, when non-nil, is the pipeline frame
// whose pooled payload backs m.Payload; the writer frees it once the
// message is on the wire. pr, when non-nil, is the pipeline-served
// request this response answers; the write loop closes its
// observability books (latency, SLO, spans, wide event) at the
// terminal. unled marks replies outside the request ledger
// (protocol-error reports, which never had a request counted), so the
// terminal accounting in write/drop paths skips them.
type outMsg struct {
	m     *Message
	f     *pipeline.Frame
	pr    *pendingReq
	unled bool
}

// free returns the backing frame, if any, to the pipeline's pools.
func (om outMsg) free() {
	if om.f != nil {
		om.f.Free()
	}
}

// conn is one client connection: a read loop that frames requests and
// submits them, and a write loop that serializes responses.
type conn struct {
	s      *Server
	nc     net.Conn
	tenant string // remote host, the SLO/wide-event tenant key
	bw     *bufio.Writer
	writeq chan outMsg
	sem    chan struct{} // window slots; held from read to response-written
	dead   chan struct{} // closed on error teardown
	lame   chan struct{} // closed on poisoned-stream teardown (flush first)
	drain  chan struct{} // closed by Shutdown once in-flight is drained

	failOnce sync.Once
	lameOnce sync.Once
	broken   bool     // write side failed; set only by the write loop
	rd       Deadline // read deadline; armed only by the read loop
	wd       Deadline // write deadline; armed only by the write loop

	// wqMu/wqClosed serialize reply routing against write-loop
	// teardown: once the writer abandons the queue it flips wqClosed, so
	// a response can never be enqueued after the final drain and leak
	// unaccounted.
	wqMu     sync.Mutex
	wqClosed bool
}

// routeResult is route's outcome.
type routeResult int

const (
	routeOK     routeResult = iota
	routeClosed             // connection torn down; response not queued
	routeFull               // queue full — the window invariant is broken
)

// route enqueues a response, never blocking.
func (c *conn) route(om outMsg) routeResult {
	c.wqMu.Lock()
	defer c.wqMu.Unlock()
	if c.wqClosed {
		return routeClosed
	}
	select {
	case c.writeq <- om:
		return routeOK
	default:
		return routeFull
	}
}

// closeWriteq bars further routing; after it returns the write loop
// owns every remaining queued response.
func (c *conn) closeWriteq() {
	c.wqMu.Lock()
	c.wqClosed = true
	c.wqMu.Unlock()
}

// fail tears the connection down: the write loop exits (dropping queued
// responses), its deferred close unblocks the read loop, and deliver
// drops any still-in-flight responses for this connection.
func (c *conn) fail() {
	c.failOnce.Do(func() { close(c.dead) })
}

// failFlush tears the connection down like fail, but has the write loop
// flush everything already queued first. Used when the reader poisons
// the stream (framing violation): the socket can still carry the error
// reply, and dropping it would race the client out of its diagnostic.
func (c *conn) failFlush() {
	c.lameOnce.Do(func() { close(c.lame) })
}

// readLoop frames requests off the socket and hands them to handle
// until the client disconnects, a framing violation poisons the stream,
// the idle deadline expires, or the server drains.
func (c *conn) readLoop() {
	defer c.s.readerWG.Done()
	br := bufio.NewReaderSize(c.nc, 64<<10)
	for {
		if !c.s.armRead(c) {
			return // draining: stop intake, leave teardown to Shutdown
		}
		m, err := readMessage(br, c.s.cfg.MaxPayload)
		if err != nil {
			if c.s.isDraining() {
				return
			}
			var pe *ProtoError
			if errors.As(err, &pe) {
				// Report the violation, then drop the connection: the
				// stream cannot be resynchronized. No request was ever
				// counted for the garbage bytes, so the error reply is
				// unledgered — protoErrors tracks these separately.
				c.s.ctr.protoErrors.Add(1)
				c.send(outMsg{m: &Message{Status: pe.Status, Payload: []byte(pe.Error())}, unled: true})
				c.failFlush()
				return
			}
			if !errors.Is(err, io.EOF) {
				c.s.logf("server: read from %v: %v", c.nc.RemoteAddr(), err)
			}
			c.fail()
			return
		}
		readAt := time.Now()
		c.s.ctr.requests.Add(1)
		c.s.ctr.bytesIn.Add(int64(headerSize + len(m.Params) + len(m.Payload)))
		if !c.handle(m, readAt) {
			return
		}
	}
}

// handle processes one framed request; it returns false when the
// connection should stop reading.
func (c *conn) handle(m *Message, readAt time.Time) bool {
	// Acquire a window slot (released by the write loop once the
	// response is written). Blocking here is the per-connection
	// backpressure: a client pipelining beyond its window waits.
	select {
	case c.sem <- struct{}{}:
	case <-c.dead:
		c.s.ctr.dropped.Add(1) // framed but the connection died first
		return false
	}
	// A traced request ends its params with a trace-context extension;
	// strip it before op-param validation so op handlers see exactly
	// what a pre-trace client would have sent. A malformed extension
	// downgrades the request to untraced — it never rejects it.
	var tc trace.Context
	if m.Flags&FlagTraced != 0 {
		if ctx, rest, ok := trace.Extract(m.Params); ok {
			tc = ctx
			m.Params = rest
		}
	}
	reject := func(st Status, format string, args ...any) bool {
		return c.send(outMsg{m: &Message{Op: m.Op, Status: st, ID: m.ID,
			Payload: []byte(fmt.Sprintf(format, args...))}})
	}
	iv := c.s.iv
	switch m.Op {
	case OpStats:
		payload, err := json.Marshal(c.s.Snapshot())
		if err != nil {
			return reject(StatusInternal, "stats: %v", err)
		}
		return c.send(outMsg{m: &Message{Op: m.Op, ID: m.ID, Payload: payload}})
	case OpRSEncode:
		if why := c.badRSLen(len(m.Payload), iv.FrameK()); why != "" {
			return reject(StatusBadRequest, "rs-encode payload %dB, want %s of k×depth = %dB",
				len(m.Payload), why, iv.FrameK())
		}
		return c.submit(m, m.Payload, tc, readAt)
	case OpRSDecode:
		if why := c.badRSLen(len(m.Payload), iv.FrameN()); why != "" {
			return reject(StatusBadRequest, "rs-decode payload %dB, want %s of n×depth = %dB",
				len(m.Payload), why, iv.FrameN())
		}
		return c.submit(m, m.Payload, tc, readAt)
	case OpSeal, OpOpen:
		if len(m.Params) != NonceSize {
			return reject(StatusBadRequest, "%v params %dB, want %d-byte nonce",
				m.Op, len(m.Params), NonceSize)
		}
		if m.Op == OpOpen && len(m.Payload) < aes.BlockSize {
			return reject(StatusCodecFailed, "aes-gcm-open payload %dB shorter than the tag",
				len(m.Payload))
		}
		// The frame carries nonce‖body; the dispatch stage splits them.
		return c.submit(m, nonceBody(m), tc, readAt)
	case OpECDHDerive, OpECDSASign, OpECDSAVerify, OpSecureSession:
		svc := c.s.ecc
		if svc == nil {
			return reject(StatusUnsupported, "%v: ecc ops disabled (curve=%s)", m.Op, CurveOff)
		}
		if why := svc.validateECC(m.Op, len(m.Payload)); why != "" {
			return reject(StatusBadRequest, "%s", why)
		}
		return c.submit(m, m.Payload, tc, readAt)
	default:
		return reject(StatusUnsupported, "unknown op %d", uint8(m.Op))
	}
}

// nonceBody returns the seal/open frame nonce‖payload without copying
// the body. readMessage read params‖payload into one buffer, and the
// nonce is m.Params — the first NonceSize bytes once a trace extension
// has been stripped — so moving it up against the payload (over the
// extension, if any) leaves nonce‖payload as that buffer's tail.
func nonceBody(m *Message) []byte {
	off := len(m.raw) - len(m.Payload) - NonceSize
	copy(m.raw[off:], m.Params)
	return m.raw[off:]
}

// badRSLen validates an RS request payload length against the frame
// unit: exactly one unit with Batch 1 (the strict contract), otherwise
// a positive multiple of the unit up to Batch units per request. It
// returns "" for a valid length, else the expectation for the
// rejection message, formatted only then.
func (c *conn) badRSLen(n, unit int) string {
	switch b := c.s.cfg.Batch; {
	case b > 1 && (n == 0 || n%unit != 0 || n > b*unit):
		return fmt.Sprintf("a positive multiple (max %d)", b)
	case b <= 1 && n != unit:
		return "exactly 1×"
	}
	return ""
}

// submit pushes one request into the shared pipeline, tagged with its
// op (as the frame epoch) and routing state. A sampled trace context
// mints this hop's request-span id.
func (c *conn) submit(m *Message, data []byte, tc trace.Context, readAt time.Time) bool {
	pr := &pendingReq{c: c, op: m.Op, id: m.ID, tc: tc, read: readAt}
	if tc.Sampled {
		pr.span = trace.NewID()
	}
	pr.submitted = time.Now()
	c.s.inflight.Add(1)
	_, err := c.s.run.SubmitChecked(data, int(m.Op), pr)
	if err != nil {
		c.s.inflight.Done()
		c.send(outMsg{m: &Message{Op: m.Op, Status: StatusShuttingDown, ID: m.ID,
			Payload: []byte("server draining")}})
		return false
	}
	return true
}

// send enqueues a reader-originated response (stats, rejections)
// through the same routing gate deliver uses. The window slot
// the reader holds guarantees queue room, so the full-queue retry is a
// safety net, not a steady state. Returns false once the connection is
// dead.
func (c *conn) send(om outMsg) bool {
	for {
		switch c.route(om) {
		case routeOK:
			return true
		case routeClosed:
			if !om.unled {
				c.s.ctr.dropped.Add(1)
			}
			return false
		case routeFull:
			select {
			case <-c.dead: // writer is tearing down; next route sees closed
			case <-time.After(time.Millisecond):
			}
		}
	}
}

// writeLoop serializes responses onto the socket. On drain (graceful
// shutdown) it flushes everything queued before closing; on dead it
// exits immediately. The deferred close also unblocks the read loop.
func (c *conn) writeLoop() {
	defer c.s.writerWG.Done()
	defer c.s.removeConn(c)
	defer c.nc.Close()
	for {
		select {
		case om := <-c.writeq:
			c.write(om)
		case <-c.dead:
			c.closeWriteq()
			c.drainRecycle()
			return
		case <-c.lame:
			// Poisoned stream: bar further routing (late pipeline
			// responses are counted dropped at the route gate), write out
			// what is already queued — the framing-error reply — and close.
			c.closeWriteq()
			for {
				select {
				case om := <-c.writeq:
					c.write(om)
				default:
					c.bw.Flush()
					return
				}
			}
		case <-c.drain:
			// In-flight is globally drained: everything this connection
			// will ever get is already queued.
			for {
				select {
				case om := <-c.writeq:
					c.write(om)
				default:
					c.bw.Flush()
					return
				}
			}
		}
	}
}

// drainRecycle accounts for and releases responses abandoned by an
// error teardown: they were routed but will never reach the client.
func (c *conn) drainRecycle() {
	for {
		select {
		case om := <-c.writeq:
			om.free()
			c.account(om, false)
		default:
			return
		}
	}
}

// account classifies one ledgered response at its terminal point. Every
// counted request reaches exactly one terminal: responses (an OK reply
// hit the wire), rejects (an error-status reply hit the wire) or
// dropped (no reply ever written) — disjoint by construction, so
// requests == responses + rejects + dropped once the server quiesces.
func (c *conn) account(om outMsg, written bool) {
	if om.unled {
		return
	}
	switch {
	case !written:
		c.s.ctr.dropped.Add(1)
	case om.m.Status == StatusOK:
		c.s.ctr.responses.Add(1)
	default:
		c.s.ctr.rejects.Add(1)
	}
}

// write puts one response on the wire (buffered; flushed when the queue
// momentarily empties), releases its window slot, and frees the backing
// frame. After a write error the connection is failed and
// further writes are dropped.
func (c *conn) write(om outMsg) {
	written := false
	if !c.broken {
		c.wd.Arm(c.nc.SetWriteDeadline, c.s.cfg.WriteTimeout)
		err := writeMessage(c.bw, om.m)
		if err == nil && len(c.writeq) == 0 {
			err = c.bw.Flush()
		}
		if err != nil {
			c.broken = true
			c.s.logf("server: write to %v: %v", c.nc.RemoteAddr(), err)
			c.fail()
		} else {
			written = true
			c.s.ctr.bytesOut.Add(int64(headerSize + len(om.m.Params) + len(om.m.Payload)))
		}
	}
	c.account(om, written)
	if om.pr != nil {
		c.s.finishRequest(c, om, written)
	}
	om.free()
	select {
	case <-c.sem:
	default: // conn-fatal replies are sent without a slot
	}
}

// finishRequest closes the observability books on one pipeline-served
// request at its terminal point in the write loop: per-op latency (with
// a trace exemplar), SLO accounting, span recording and the wide event.
// Reader-path replies (stats, rejections) never reach the pipeline and
// are deliberately excluded — the latency ledger measures the datapath.
func (s *Server) finishRequest(c *conn, om outMsg, written bool) {
	pr := om.pr
	now := time.Now()
	lat := now.Sub(pr.read)
	if int(pr.op) < len(s.opLat) {
		s.opLat[pr.op].Observe(lat)
		if pr.tc.Sampled {
			s.opEx[pr.op].Record(pr.tc.Trace, int64(lat))
		}
	}
	s.cfg.SLO.Observe(pr.op.String(), c.tenant, lat)
	if pr.tc.Sampled {
		s.recordSpans(c, pr, om.m.Status, written, now)
	}
	s.wideEvent(c, pr, om.m.Status, written, lat)
}

// recordSpans turns one traced request's hop timestamps into spans on
// the /tracez ring: the request envelope (read to response written),
// admission (window wait and validation before the pipeline accepted
// the frame), the codec stage (submitted to routed, split into queue
// wait and service at the worker's start), and write-back (response
// routed to written).
func (s *Server) recordSpans(c *conn, pr *pendingReq, st Status, written bool, now time.Time) {
	traceID := trace.FormatID(pr.tc.Trace)
	reqID := trace.FormatID(pr.span)
	parent := ""
	if pr.tc.Span != 0 {
		parent = trace.FormatID(pr.tc.Span)
	}
	status := ""
	switch {
	case !written:
		status = "dropped"
	case st != StatusOK:
		status = st.String()
	}
	s.spans.Add(trace.Span{
		Trace: traceID, ID: reqID, Parent: parent,
		Service: "gfserved", Name: "request", Op: pr.op.String(),
		StartUnixNs: pr.read.UnixNano(), DurNs: now.Sub(pr.read).Nanoseconds(),
		Status: status,
		Attrs:  map[string]string{"peer": c.nc.RemoteAddr().String()},
	})
	s.spans.Add(trace.Span{
		Trace: traceID, ID: trace.FormatID(trace.NewID()), Parent: reqID,
		Service: "gfserved", Name: "admission", Op: pr.op.String(),
		StartUnixNs: pr.read.UnixNano(), DurNs: pr.submitted.Sub(pr.read).Nanoseconds(),
	})
	s.spans.Add(trace.Span{
		Trace: traceID, ID: trace.FormatID(trace.NewID()), Parent: reqID,
		Service: "gfserved", Name: "stage:" + dispatchStageName, Op: pr.op.String(),
		StartUnixNs: pr.submitted.UnixNano(), DurNs: pr.routed.Sub(pr.submitted).Nanoseconds(),
		Attrs: map[string]string{
			"queue_wait_ns": strconv.FormatInt(pr.started.Sub(pr.submitted).Nanoseconds(), 10),
			"service_ns":    strconv.FormatInt(pr.routed.Sub(pr.started).Nanoseconds(), 10),
		},
	})
	wb := trace.Span{
		Trace: traceID, ID: trace.FormatID(trace.NewID()), Parent: reqID,
		Service: "gfserved", Name: "write-back", Op: pr.op.String(),
		StartUnixNs: pr.routed.UnixNano(), DurNs: now.Sub(pr.routed).Nanoseconds(),
	}
	if !written {
		wb.Status = "dropped"
	}
	s.spans.Add(wb)
}

// wideEvent emits the one-line structured record of a completed
// request: every trace-sampled request, plus one in every WideEvery
// untraced completions.
func (s *Server) wideEvent(c *conn, pr *pendingReq, st Status, written bool, lat time.Duration) {
	lg := s.cfg.WideLog
	if lg == nil {
		return
	}
	if !pr.tc.Sampled {
		every := uint64(s.cfg.WideEvery)
		if every == 0 || s.wideTick.Add(1)%every != 0 {
			return
		}
	}
	attrs := []slog.Attr{
		slog.String("service", "gfserved"),
		slog.String("op", pr.op.String()),
		slog.String("tenant", c.tenant),
		slog.String("status", st.String()),
		slog.Bool("written", written),
		slog.Int64("latency_ns", int64(lat)),
	}
	if pr.tc.Sampled {
		attrs = append(attrs,
			slog.String("trace", trace.FormatID(pr.tc.Trace)),
			slog.String("span", trace.FormatID(pr.span)))
	}
	lg.LogAttrs(context.Background(), slog.LevelInfo, "request", attrs...)
}
