package server

import (
	"context"
	"encoding/json"
	"fmt"
	"log/slog"
	"strconv"
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
	// limit). Deadlines are re-armed lazily: a connection idle for less
	// than 7/8·ReadTimeout is never cut and one idle for ReadTimeout
	// always is; likewise a write blocked for less than 7/8·WriteTimeout
	// is never cut and one blocked for WriteTimeout is.
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
// with Serve (or ListenAndServe), stop with Shutdown. Its connections
// run on the embedded Front.
type Server struct {
	*Front
	cfg Config
	iv  *rs.Interleaved
	pl  *pipeline.Pipeline
	run *pipeline.Run

	st  selftest
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

// pendingReq rides pipeline.Frame.Tag from submission to delivery and
// then the reply through its connection's outbox: the request's
// connection, op and id, its trace context and hop timestamps, and the
// frame backing the reply, closed out by Finish when the reply is
// written out or dropped.
type pendingReq struct {
	s  *Server
	c  *Conn
	op Op
	id uint64
	f  *pipeline.Frame // backs the reply's payload; freed by Finish

	tc   trace.Context // zero when the request carried no trace context
	span uint64        // this hop's request-span id (sampled requests only)

	read      time.Time // request framed off the socket
	submitted time.Time // frame entered the shared pipeline
	// started and queued bound a sampled request's stage span: a worker
	// began the op, and the reply was queued on the connection's outbox
	// as the stage returned. Unsampled requests leave them zero. The
	// worker writes them; the outbox's lock orders its writes before
	// the flusher reads them.
	started, queued time.Time
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
	pl, err := pipeline.New(pipeline.Config{Workers: cfg.Workers, Queue: cfg.Queue}, disp)
	if err != nil {
		return nil, err
	}
	s := &Server{
		cfg:   cfg,
		iv:    iv,
		pl:    pl,
		ecc:   eccSvc,
		ghash: disp.gcm.GHASHStrategy(),
		aes:   cipher.BlockStrategy(),
		spans: trace.NewRing(cfg.TraceRing),
	}
	s.run = pl.Start(s.deliver)
	s.Front = NewFront("server", cfg, s.open, s.run.Close)
	return s, nil
}

// Code returns the server's interleaved RS configuration.
func (s *Server) Code() *rs.Interleaved { return s.iv }

// Shutdown gracefully stops the server: it stops accepting, lets every
// connection finish reading its current request, answers every request
// already read, then closes the connections and the pipeline and
// returns once its workers have exited. If ctx expires first, the
// connections are cut, the pipeline is closed and ctx.Err() is returned
// at once.
func (s *Server) Shutdown(ctx context.Context) error {
	if err := s.Front.Shutdown(ctx); err != nil {
		return err
	}
	s.run.Wait()
	return nil
}

// deliver queues one completed frame's reply on its connection's
// outbox. It runs on the pipeline worker that computed the frame, as
// soon as the stage returns, so a reply waits for no other request, and
// a worker never waits on a socket: Post starts a flusher goroutine
// when none is running.
func (s *Server) deliver(f *pipeline.Frame) {
	pr := f.Tag.(*pendingReq)
	if pr.tc.Sampled {
		pr.queued = time.Now()
	}
	m := &Message{Op: pr.op, ID: pr.id}
	if f.Err != nil {
		m.Status, m.Payload = StatusCodecFailed, []byte(f.Err.Error())
		f.Free()
	} else {
		// The reply references the frame's (pool-backed) payload, freed
		// once the reply is written out or dropped.
		m.Payload, pr.f = f.Data, f
	}
	pr.c.Post(Reply{Msg: m, Done: pr})
}

// open returns the handler for one connection's requests.
func (s *Server) open(c *Conn) Handler {
	return func(m *Message, readAt time.Time) { s.handle(c, m, readAt) }
}

// handle validates one framed request and submits it to the pipeline,
// or answers it from the read loop (stats, rejections). A request whose
// reply would not fit the payload guard — a seal within 16 bytes of it,
// an rs-encode expanding past it — is rejected as too large: a client
// or proxy reading under the same guard would take the oversized reply
// for a framing error and drop the whole connection.
func (s *Server) handle(c *Conn, m *Message, readAt time.Time) {
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
	reply := func(st Status, payload []byte) {
		c.Send(Reply{Msg: &Message{Op: m.Op, Status: st, ID: m.ID, Payload: payload}})
	}
	reject := func(st Status, format string, args ...any) {
		reply(st, []byte(fmt.Sprintf(format, args...)))
	}
	iv := s.iv
	switch m.Op {
	case OpStats:
		payload, err := json.Marshal(s.Snapshot())
		if err != nil {
			reject(StatusInternal, "stats: %v", err)
			return
		}
		reply(StatusOK, payload)
	case OpRSEncode:
		if why := s.badRSLen(len(m.Payload), iv.FrameK()); why != "" {
			reject(StatusBadRequest, "rs-encode payload %dB, want %s of k×depth = %dB",
				len(m.Payload), why, iv.FrameK())
			return
		}
		if n := len(m.Payload) / iv.FrameK() * iv.FrameN(); n > s.cfg.MaxPayload {
			reject(StatusTooLarge, "rs-encode reply %dB exceeds the %dB payload guard", n, s.cfg.MaxPayload)
			return
		}
		s.submit(c, m, m.Payload, tc, readAt)
	case OpRSDecode:
		if why := s.badRSLen(len(m.Payload), iv.FrameN()); why != "" {
			reject(StatusBadRequest, "rs-decode payload %dB, want %s of n×depth = %dB",
				len(m.Payload), why, iv.FrameN())
			return
		}
		s.submit(c, m, m.Payload, tc, readAt)
	case OpSeal, OpOpen:
		if len(m.Params) != NonceSize {
			reject(StatusBadRequest, "%v params %dB, want %d-byte nonce",
				m.Op, len(m.Params), NonceSize)
			return
		}
		if m.Op == OpOpen && len(m.Payload) < aes.BlockSize {
			reject(StatusCodecFailed, "aes-gcm-open payload %dB shorter than the tag",
				len(m.Payload))
			return
		}
		if m.Op == OpSeal && len(m.Payload) > s.cfg.MaxPayload-aes.BlockSize {
			reject(StatusTooLarge, "aes-gcm-seal payload %dB: reply with its %dB tag exceeds the %dB payload guard",
				len(m.Payload), aes.BlockSize, s.cfg.MaxPayload)
			return
		}
		// The frame carries nonce‖body; the dispatch stage splits them.
		s.submit(c, m, nonceBody(m), tc, readAt)
	case OpECDHDerive, OpECDSASign, OpECDSAVerify, OpSecureSession:
		svc := s.ecc
		if svc == nil {
			reject(StatusUnsupported, "%v: ecc ops disabled (curve=%s)", m.Op, CurveOff)
			return
		}
		if why := svc.validateECC(m.Op, len(m.Payload)); why != "" {
			reject(StatusBadRequest, "%s", why)
			return
		}
		s.submit(c, m, m.Payload, tc, readAt)
	default:
		reject(StatusUnsupported, "unknown op %d", uint8(m.Op))
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
func (s *Server) badRSLen(n, unit int) string {
	switch b := s.cfg.Batch; {
	case b > 1 && (n == 0 || n%unit != 0 || n > b*unit):
		return fmt.Sprintf("a positive multiple (max %d)", b)
	case b <= 1 && n != unit:
		return "exactly 1×"
	}
	return ""
}

// submit pushes one request into the shared pipeline, tagged with its
// op (as the frame epoch) and routing state. A sampled trace context
// mints this hop's request-span id. Once Shutdown has closed the
// pipeline the request is refused with StatusShuttingDown.
func (s *Server) submit(c *Conn, m *Message, data []byte, tc trace.Context, readAt time.Time) {
	pr := &pendingReq{s: s, c: c, op: m.Op, id: m.ID, tc: tc, read: readAt}
	if tc.Sampled {
		pr.span = trace.NewID()
	}
	pr.submitted = time.Now()
	if _, err := s.run.SubmitChecked(data, int(m.Op), pr); err != nil {
		c.Send(Reply{Msg: &Message{Op: m.Op, Status: StatusShuttingDown, ID: m.ID,
			Payload: []byte("server draining")}})
	}
}

// Finish frees the frame behind a pipeline-served reply and closes the
// request's books once the reply is written out or dropped.
func (pr *pendingReq) Finish(st Status, written bool) {
	if pr.f != nil {
		pr.f.Free()
	}
	pr.s.finishRequest(pr, st, written)
}

// finishRequest closes the observability books on one pipeline-served
// request once its reply is written out or dropped: per-op latency
// (with a trace exemplar), SLO accounting, span recording and the wide
// event. Reader-path replies (stats, rejections) never reach the
// pipeline and are deliberately excluded — the latency ledger measures
// the datapath.
func (s *Server) finishRequest(pr *pendingReq, st Status, written bool) {
	now := time.Now()
	lat := now.Sub(pr.read)
	if int(pr.op) < len(s.opLat) {
		s.opLat[pr.op].Observe(lat)
		if pr.tc.Sampled {
			s.opEx[pr.op].Record(pr.tc.Trace, int64(lat))
		}
	}
	s.cfg.SLO.Observe(pr.op.String(), pr.c.Host(), lat)
	if pr.tc.Sampled {
		s.recordSpans(pr, st, written, now)
	}
	s.wideEvent(pr, st, written, lat)
}

// recordSpans turns one traced request's hop timestamps into spans on
// the /tracez ring: the request envelope (read to response written),
// admission (window wait and validation before the pipeline accepted
// the frame), the codec stage (submitted to queued, split into queue
// wait and service at the worker's start), and write-back (reply queued
// on the connection's outbox to written out).
func (s *Server) recordSpans(pr *pendingReq, st Status, written bool, now time.Time) {
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
		Attrs:  map[string]string{"peer": pr.c.RemoteAddr().String()},
	})
	s.spans.Add(trace.Span{
		Trace: traceID, ID: trace.FormatID(trace.NewID()), Parent: reqID,
		Service: "gfserved", Name: "admission", Op: pr.op.String(),
		StartUnixNs: pr.read.UnixNano(), DurNs: pr.submitted.Sub(pr.read).Nanoseconds(),
	})
	s.spans.Add(trace.Span{
		Trace: traceID, ID: trace.FormatID(trace.NewID()), Parent: reqID,
		Service: "gfserved", Name: "stage:" + dispatchStageName, Op: pr.op.String(),
		StartUnixNs: pr.submitted.UnixNano(), DurNs: pr.queued.Sub(pr.submitted).Nanoseconds(),
		Attrs: map[string]string{
			"queue_wait_ns": strconv.FormatInt(pr.started.Sub(pr.submitted).Nanoseconds(), 10),
			"service_ns":    strconv.FormatInt(pr.queued.Sub(pr.started).Nanoseconds(), 10),
		},
	})
	wb := trace.Span{
		Trace: traceID, ID: trace.FormatID(trace.NewID()), Parent: reqID,
		Service: "gfserved", Name: "write-back", Op: pr.op.String(),
		StartUnixNs: pr.queued.UnixNano(), DurNs: now.Sub(pr.queued).Nanoseconds(),
	}
	if !written {
		wb.Status = "dropped"
	}
	s.spans.Add(wb)
}

// wideEvent emits the one-line structured record of a completed
// request: every trace-sampled request, plus one in every WideEvery
// untraced completions.
func (s *Server) wideEvent(pr *pendingReq, st Status, written bool, lat time.Duration) {
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
		slog.String("tenant", pr.c.Host()),
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
