package cluster

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

	"repro/internal/obs/trace"
	"repro/internal/server"
)

// FuzzProxyConn feeds arbitrary bytes over net.Pipe into one Proxy whose
// backend is a live Server, both reused across inputs. Whatever the
// bytes, nothing may panic; once the pipe has closed and the proxy has
// quiesced, the proxy's ledger must balance (every request it framed
// reached exactly one terminal), the backend's must too once it has
// counted its last reply, and the goroutine count must be back where it
// started. The shared backend connection, dialed by a warm-up input,
// keeps its goroutines (the client's read loop and the backend's
// reader) for the whole run.
func FuzzProxyConn(f *testing.F) {
	s, err := server.New(server.Config{Workers: 2, Window: 4})
	if err != nil {
		f.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		f.Fatal(err)
	}
	go s.Serve(ln)
	// No admin address: the health checker's one probe at start dials
	// the GFP1 port, and the next is an hour away.
	p, err := New(Config{
		Backends:       []BackendSpec{{Addr: ln.Addr().String()}},
		Window:         4,
		HealthInterval: time.Hour,
	})
	if err != nil {
		f.Fatal(err)
	}
	f.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		p.Shutdown(ctx)
		s.Shutdown(ctx)
	})
	seeds := proxyConnSeeds(f, ln.Addr().String())
	proxyConnRound(p, seeds[0]) // warm-up: dials the shared backend connection
	for _, seed := range seeds {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, in []byte) {
		base := runtime.NumGoroutine()

		proxyConnRound(p, in)

		if c := p.snapshot(); c.Requests != c.Responses+c.Rejects+c.Dropped {
			t.Fatalf("proxy ledger unbalanced: %+v", c)
		}
		// The backend counts a reply just after flushing it, so the proxy
		// can hold it before the counters show it.
		for deadline := time.Now().Add(2 * time.Second); ; time.Sleep(time.Millisecond) {
			c := s.Snapshot().Server
			if c.Requests == c.Responses+c.Rejects+c.Dropped {
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("backend ledger unbalanced: %+v", c)
			}
		}
		for deadline := time.Now().Add(2 * time.Second); runtime.NumGoroutine() > base; time.Sleep(time.Millisecond) {
			if time.Now().After(deadline) {
				t.Fatalf("%d goroutines after the connection closed, %d before", runtime.NumGoroutine(), base)
			}
		}
	})
}

// proxyConnRound writes in to a fresh proxy connection over net.Pipe,
// closes it, and returns once the proxy has read, forwarded and answered
// everything it framed.
func proxyConnRound(p *Proxy, in []byte) {
	cli, srv := net.Pipe()
	p.ServeConn(srv)
	drained := make(chan struct{})
	go func() {
		io.Copy(io.Discard, cli) // replies; ends when the pipe closes
		close(drained)
	}()
	cli.Write(in) // fails early if the proxy hangs up on a framing error
	cli.Close()
	<-drained
	p.Quiesce()
}

// proxyConnSeeds is the seed corpus: one valid frame per op, a traced
// frame with a good and one with a bad trace extension, more requests
// than the window in one burst, a bad magic, a truncated header and an
// oversize length. The ECC and open payloads come from the backend at
// addr.
func proxyConnSeeds(f *testing.F, addr string) [][]byte {
	f.Helper()
	frame := func(m *server.Message) []byte {
		var b bytes.Buffer
		if err := server.WriteResponse(&b, m); err != nil {
			f.Fatal(err)
		}
		return b.Bytes()
	}
	c, err := server.Dial(addr, time.Second)
	if err != nil {
		f.Fatal(err)
	}
	defer c.Close()
	st, err := c.Stats()
	if err != nil {
		f.Fatal(err)
	}
	pub, err := hex.DecodeString(st.Config.ECC.PublicKey)
	if err != nil {
		f.Fatal(err)
	}
	nonce := bytes.Repeat([]byte{7}, server.NonceSize)
	sealed, err := c.Seal(nonce, []byte("fuzz plaintext"))
	if err != nil {
		f.Fatal(err)
	}
	digest := sha256.Sum256([]byte("fuzz"))
	sig, err := c.ECDSASign(digest[:])
	if err != nil {
		f.Fatal(err)
	}
	k, n := st.Config.FrameK, st.Config.FrameN
	ops := []*server.Message{
		{Op: server.OpRSEncode, Payload: make([]byte, k)},
		{Op: server.OpRSDecode, Payload: make([]byte, n)},
		{Op: server.OpSeal, Params: nonce, Payload: []byte("fuzz plaintext")},
		{Op: server.OpOpen, Params: nonce, Payload: sealed},
		{Op: server.OpStats},
		{Op: server.OpECDHDerive, Payload: pub},
		{Op: server.OpECDSASign, Payload: digest[:]},
		{Op: server.OpECDSAVerify, Payload: append(append(append([]byte(nil), pub...), sig...), digest[:]...)},
		{Op: server.OpSecureSession, Payload: append(append([]byte(nil), pub...), "challenge"...)},
	}
	var seeds [][]byte
	for i, m := range ops {
		m.ID = uint64(i + 1)
		seeds = append(seeds, frame(m))
	}
	traced := &server.Message{Op: server.OpRSEncode, ID: 20, Payload: make([]byte, k)}
	server.AttachTrace(traced, trace.Context{Trace: 1, Span: 2, Sampled: true})
	seeds = append(seeds, frame(traced),
		frame(&server.Message{Op: server.OpRSEncode, ID: 21, Flags: server.FlagTraced,
			Params: bytes.Repeat([]byte{0xab}, trace.ExtSize), Payload: make([]byte, k)}))
	var burst []byte
	for i := 0; i < 6; i++ {
		burst = append(burst, frame(&server.Message{Op: server.OpRSEncode, ID: uint64(30 + i), Payload: make([]byte, k)})...)
	}
	seeds = append(seeds, burst)
	good := frame(&server.Message{Op: server.OpRSEncode, ID: 40, Payload: make([]byte, k)})
	badMagic := append([]byte(nil), good...)
	badMagic[0] = 'Z'
	oversize := append([]byte(nil), good[:server.HeaderSize]...)
	binary.BigEndian.PutUint32(oversize[20:], 1<<31)
	return append(seeds, badMagic, good[:server.HeaderSize/2], oversize)
}
