package server

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"io"
	"net"
	"runtime"
	"testing"
	"time"

	"repro/internal/aes"
	"repro/internal/obs/trace"
)

// FuzzServeConn feeds arbitrary bytes over net.Pipe into one live
// Server, reused across inputs. Whatever the bytes, the server must not
// panic; once the pipe has closed and the server has quiesced (the read
// loop gone, every reply written out or dropped), every request it
// framed must have reached exactly one terminal (requests == responses
// + rejects + dropped, over this input), and the goroutine count must be
// back where it started.
func FuzzServeConn(f *testing.F) {
	s, err := New(Config{Workers: 2, Window: 4})
	if err != nil {
		f.Fatal(err)
	}
	f.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		s.Shutdown(ctx)
	})
	for _, seed := range serveConnSeeds(f, s) {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, in []byte) {
		base := runtime.NumGoroutine()
		before := s.ctr.Snapshot()

		cli, srv := net.Pipe()
		s.ServeConn(srv)
		drained := make(chan struct{})
		go func() {
			io.Copy(io.Discard, cli) // replies; ends when the pipe closes
			close(drained)
		}()
		cli.Write(in) // fails early if the server hangs up on a framing error
		cli.Close()
		<-drained
		s.Quiesce()

		after := s.ctr.Snapshot()
		requests := after.Requests - before.Requests
		terminal := after.Responses - before.Responses +
			after.Rejects - before.Rejects +
			after.Dropped - before.Dropped
		if requests != terminal {
			t.Fatalf("ledger unbalanced: %d requests, %d responses + rejects + dropped (%+v -> %+v)",
				requests, terminal, before, after)
		}
		for deadline := time.Now().Add(2 * time.Second); runtime.NumGoroutine() > base; time.Sleep(time.Millisecond) {
			if time.Now().After(deadline) {
				t.Fatalf("%d goroutines after the connection closed, %d before", runtime.NumGoroutine(), base)
			}
		}
	})
}

// FuzzReadRequest feeds arbitrary bytes to the frame reader under an
// arbitrary payload guard (up to DefaultMaxPayload, which bounds what
// one input can make it allocate). ReadRequest must never panic and may
// fail only with a *ProtoError, io.EOF or io.ErrUnexpectedEOF. A frame
// it accepts must respect MaxParams and the guard, and WriteResponse
// must re-encode exactly the bytes it consumed. trace.Extract on the
// params must never panic; when it finds a context, the rest is the
// params without their last ExtSize bytes, the trace id is nonzero, and
// extracting from the context re-appended to the rest gives it back.
func FuzzReadRequest(f *testing.F) {
	s, err := New(Config{Workers: 1})
	if err != nil {
		f.Fatal(err)
	}
	seeds := serveConnSeeds(f, s)
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		f.Fatal(err)
	}
	for _, seed := range seeds {
		f.Add(seed, uint32(DefaultMaxPayload))
	}
	f.Add(seeds[1], uint32(0)) // a payload over the guard
	f.Fuzz(func(t *testing.T, in []byte, guard uint32) {
		maxPayload := int(guard % (DefaultMaxPayload + 1))
		r := bytes.NewReader(in)
		m, err := ReadRequest(r, maxPayload)
		if err != nil {
			if _, ok := err.(*ProtoError); !ok && err != io.EOF && err != io.ErrUnexpectedEOF {
				t.Fatalf("ReadRequest failed with %T %v, want *ProtoError, io.EOF or io.ErrUnexpectedEOF", err, err)
			}
			return
		}
		if len(m.Params) > MaxParams || len(m.Payload) > maxPayload {
			t.Fatalf("accepted params %dB (max %d), payload %dB (guard %d)",
				len(m.Params), MaxParams, len(m.Payload), maxPayload)
		}
		var out bytes.Buffer
		if err := WriteResponse(&out, m); err != nil {
			t.Fatalf("re-encoding an accepted frame: %v", err)
		}
		if consumed := in[:len(in)-r.Len()]; !bytes.Equal(out.Bytes(), consumed) {
			t.Fatalf("re-encoded %x, consumed %x", out.Bytes(), consumed)
		}

		tc, rest, ok := trace.Extract(m.Params)
		if !ok {
			return
		}
		if !bytes.Equal(rest, m.Params[:len(m.Params)-trace.ExtSize]) {
			t.Fatalf("Extract rest %x, want params %x without the last %d bytes", rest, m.Params, trace.ExtSize)
		}
		if tc.Trace == 0 {
			t.Fatal("Extract accepted a zero trace id")
		}
		// Clip rest so the re-append cannot write into m.Params.
		tc2, rest2, ok := trace.Extract(tc.Append(rest[:len(rest):len(rest)]))
		if !ok || tc2 != tc || !bytes.Equal(rest2, rest) {
			t.Fatalf("Extract(Append) = %+v %x %v, want %+v %x", tc2, rest2, ok, tc, rest)
		}
	})
}

// serveConnSeeds is the seed corpus: one valid frame per op, a traced
// frame with a good and one with a bad trace extension, more requests
// than the window in one burst, a bad magic, a truncated header and an
// oversize length.
func serveConnSeeds(f *testing.F, s *Server) [][]byte {
	f.Helper()
	frame := func(m *Message) []byte {
		var b bytes.Buffer
		if err := writeMessage(&b, m); err != nil {
			f.Fatal(err)
		}
		return b.Bytes()
	}
	iv := s.Code()
	nonce := bytes.Repeat([]byte{7}, NonceSize)
	cipher, err := aes.NewCipher(demoKey)
	if err != nil {
		f.Fatal(err)
	}
	sealed, err := cipher.NewGCM().SealTo(nil, nonce, []byte("fuzz plaintext"), nil)
	if err != nil {
		f.Fatal(err)
	}
	pub, err := hex.DecodeString(s.ecc.info().PublicKey)
	if err != nil {
		f.Fatal(err)
	}
	digest := sha256.Sum256([]byte("fuzz"))
	sig, err := s.ecc.eng.Clone().SignAppend(nil, digest[:])
	if err != nil {
		f.Fatal(err)
	}
	ops := []*Message{
		{Op: OpStats},
		{Op: OpRSEncode, Payload: make([]byte, iv.FrameK())},
		{Op: OpRSDecode, Payload: make([]byte, iv.FrameN())},
		{Op: OpSeal, Params: nonce, Payload: []byte("fuzz plaintext")},
		{Op: OpOpen, Params: nonce, Payload: sealed},
		{Op: OpECDHDerive, Payload: pub},
		{Op: OpECDSASign, Payload: digest[:]},
		{Op: OpECDSAVerify, Payload: append(append(append([]byte(nil), pub...), sig...), digest[:]...)},
		{Op: OpSecureSession, Payload: append(append([]byte(nil), pub...), "challenge"...)},
	}
	var seeds [][]byte
	for i, m := range ops {
		m.ID = uint64(i + 1)
		seeds = append(seeds, frame(m))
	}
	traced := &Message{Op: OpRSEncode, ID: 20, Payload: make([]byte, iv.FrameK())}
	AttachTrace(traced, trace.Context{Trace: 1, Span: 2, Sampled: true})
	seeds = append(seeds, frame(traced),
		frame(&Message{Op: OpRSEncode, ID: 21, Flags: FlagTraced,
			Params: bytes.Repeat([]byte{0xab}, trace.ExtSize), Payload: make([]byte, iv.FrameK())}))
	var burst []byte
	for i := 0; i < 6; i++ {
		burst = append(burst, frame(&Message{Op: OpRSEncode, ID: uint64(30 + i), Payload: make([]byte, iv.FrameK())})...)
	}
	seeds = append(seeds, burst)
	good := frame(&Message{Op: OpRSEncode, ID: 40, Payload: make([]byte, iv.FrameK())})
	badMagic := append([]byte(nil), good...)
	badMagic[0] = 'Z'
	oversize := append([]byte(nil), good[:headerSize]...)
	binary.BigEndian.PutUint32(oversize[20:], 1<<31)
	return append(seeds, badMagic, good[:headerSize/2], oversize)
}
