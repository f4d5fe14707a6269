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
