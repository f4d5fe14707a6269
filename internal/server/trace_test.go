package server

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"strings"
	"testing"
	"time"

	"repro/internal/obs/trace"
)

// TestFlagsWireRoundTrip: the status/flags split of header offset 6 must
// round-trip both halves and stay bit-exact with the pre-trace format
// when no flag is set (old peers always wrote plain big-endian status
// there).
func TestFlagsWireRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	plain := &Message{Op: OpStats, Status: StatusShuttingDown, ID: 42}
	if err := writeMessage(&buf, plain); err != nil {
		t.Fatal(err)
	}
	hdr := buf.Bytes()[:headerSize]
	if got := binary.BigEndian.Uint16(hdr[6:]); got != uint16(StatusShuttingDown) {
		t.Fatalf("unflagged status field = %#04x, want the pre-trace encoding %#04x",
			got, uint16(StatusShuttingDown))
	}

	buf.Reset()
	flagged := &Message{Op: OpRSEncode, Status: StatusOK, Flags: FlagTraced, ID: 7, Payload: []byte("x")}
	if err := writeMessage(&buf, flagged); err != nil {
		t.Fatal(err)
	}
	hdr = buf.Bytes()[:headerSize]
	if got := binary.BigEndian.Uint16(hdr[6:]); got != FlagTraced {
		t.Fatalf("flagged status field = %#04x, want %#04x", got, FlagTraced)
	}
	got, err := readMessage(&buf, DefaultMaxPayload)
	if err != nil {
		t.Fatal(err)
	}
	if got.Flags != FlagTraced || got.Status != StatusOK {
		t.Fatalf("read split flags=%#04x status=%v, want %#04x and StatusOK", got.Flags, got.Status, FlagTraced)
	}

	// A status bit pattern must never leak into the flags half or vice
	// versa.
	buf.Reset()
	both := &Message{Op: OpRSDecode, Status: StatusCodecFailed, Flags: FlagTraced, ID: 9}
	if err := writeMessage(&buf, both); err != nil {
		t.Fatal(err)
	}
	got, err = readMessage(&buf, DefaultMaxPayload)
	if err != nil {
		t.Fatal(err)
	}
	if got.Status != StatusCodecFailed || got.Flags != FlagTraced {
		t.Fatalf("combined field split wrong: status=%v flags=%#04x", got.Status, got.Flags)
	}
}

// waitForSpans polls the server's trace ring until at least n spans for
// the given trace id show up (span recording completes asynchronously
// after the response is written).
func waitForSpans(t *testing.T, s *Server, traceID string, n int) []trace.Span {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for {
		var got []trace.Span
		for _, sp := range s.TraceSnap().Spans {
			if sp.Trace == traceID {
				got = append(got, sp)
			}
		}
		if len(got) >= n {
			return got
		}
		if time.Now().After(deadline) {
			t.Fatalf("only %d spans for trace %s after 2s: %+v", len(got), traceID, got)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestTracedRequestSpans: a sampled request through a live server must
// leave the full span set — request, admission, per-stage, write-back —
// under one trace id, parented to the caller's span, while untraced
// requests leave the ring untouched.
func TestTracedRequestSpans(t *testing.T) {
	s, addr := startServer(t, Config{N: 255, K: 239, Depth: 2, Workers: 2, TraceRing: 64})
	c := dialT(t, addr)

	msg := make([]byte, s.Code().FrameK())
	rand.New(rand.NewSource(3)).Read(msg)

	// Untraced traffic records nothing.
	if _, err := c.RSEncode(msg); err != nil {
		t.Fatal(err)
	}
	if total := s.TraceSnap().Total; total != 0 {
		t.Fatalf("untraced request recorded %d spans", total)
	}

	tc := trace.Context{Trace: trace.NewID(), Span: trace.NewID(), Sampled: true}
	m := &Message{Op: OpRSEncode, Payload: msg}
	AttachTrace(m, tc)
	resp, err := c.Do(m)
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Payload) != s.Code().FrameN() {
		t.Fatalf("traced encode returned %dB, want %d", len(resp.Payload), s.Code().FrameN())
	}

	spans := waitForSpans(t, s, trace.FormatID(tc.Trace), 4)
	byName := make(map[string]trace.Span)
	stage := false
	for _, sp := range spans {
		if sp.Service != "gfserved" {
			t.Errorf("span %s has service %q", sp.Name, sp.Service)
		}
		if strings.HasPrefix(sp.Name, "stage:") {
			stage = true
			continue
		}
		byName[sp.Name] = sp
	}
	for _, want := range []string{"request", "admission", "write-back"} {
		if _, ok := byName[want]; !ok {
			t.Errorf("missing %q span; have %+v", want, spans)
		}
	}
	if !stage {
		t.Errorf("no per-stage span recorded: %+v", spans)
	}
	if req := byName["request"]; req.Parent != trace.FormatID(tc.Span) {
		t.Errorf("request span parent = %q, want the caller's span %s", req.Parent, trace.FormatID(tc.Span))
	}
	if req := byName["request"]; req.Status != "" {
		t.Errorf("successful request span has status %q", req.Status)
	}
}

// TestMalformedTraceExtensionIgnored: a request flagged as traced whose
// extension is garbage or truncated must be served normally (untraced),
// never rejected, and must record nothing.
func TestMalformedTraceExtensionIgnored(t *testing.T) {
	s, addr := startServer(t, Config{N: 255, K: 239, Depth: 2, Workers: 2, TraceRing: 64})
	c := dialT(t, addr)

	msg := make([]byte, s.Code().FrameK())
	rand.New(rand.NewSource(4)).Read(msg)

	for name, params := range map[string][]byte{
		"bad magic": bytes.Repeat([]byte{0xab}, trace.ExtSize),
		"truncated": {0x54, 0x43, 1, 1, 0, 0},
		"empty":     nil,
	} {
		resp, err := c.Do(&Message{Op: OpRSEncode, Flags: FlagTraced, Params: params, Payload: msg})
		if err != nil {
			t.Fatalf("%s: traced-flagged request failed: %v", name, err)
		}
		if len(resp.Payload) != s.Code().FrameN() {
			t.Fatalf("%s: encode returned %dB, want %d", name, len(resp.Payload), s.Code().FrameN())
		}
	}
	if total := s.TraceSnap().Total; total != 0 {
		t.Fatalf("malformed extensions recorded %d spans", total)
	}
}

// TestTracedSealOpen: the seal/open frame is built in place from the
// request buffer, moving the nonce over a stripped trace extension; a
// traced request must produce exactly the bytes an untraced one does.
func TestTracedSealOpen(t *testing.T) {
	_, addr := startServer(t, Config{N: 255, K: 239, Depth: 1, Workers: 2, TraceRing: 64})
	c := dialT(t, addr)

	nonce := bytes.Repeat([]byte{7}, NonceSize)
	pt := bytes.Repeat([]byte("traced payload "), 20)
	want, err := c.Seal(nonce, pt)
	if err != nil {
		t.Fatal(err)
	}
	traced := func(op Op, payload []byte) []byte {
		t.Helper()
		m := &Message{Op: op, Params: append([]byte(nil), nonce...), Payload: append([]byte(nil), payload...)}
		AttachTrace(m, trace.Context{Trace: trace.NewID(), Span: trace.NewID(), Sampled: true})
		resp, err := c.Do(m)
		if err != nil {
			t.Fatalf("traced %v: %v", op, err)
		}
		return resp.Payload
	}
	if got := traced(OpSeal, pt); !bytes.Equal(got, want) {
		t.Fatalf("traced seal %x, untraced %x", got, want)
	}
	if got := traced(OpOpen, want); !bytes.Equal(got, pt) {
		t.Fatalf("traced open %q, want %q", got, pt)
	}
	if got, err := c.Open(nonce, want); err != nil || !bytes.Equal(got, pt) {
		t.Fatalf("untraced open %q, %v", got, err)
	}
}
