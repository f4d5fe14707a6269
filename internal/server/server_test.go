package server

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"sync"
	"testing"
	"time"

	"repro/internal/channel"
	"repro/internal/gf"
)

// startServer spins up a server on a loopback listener and returns it
// with its address; cleanup shuts it down.
func startServer(t *testing.T, cfg Config) (*Server, string) {
	t.Helper()
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	serveDone := make(chan error, 1)
	go func() { serveDone <- s.Serve(ln) }()
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		s.Shutdown(ctx) // double-shutdown in tests that already did: reports error, harmless
		select {
		case err := <-serveDone:
			if err != nil {
				t.Errorf("Serve: %v", err)
			}
		case <-time.After(5 * time.Second):
			t.Error("Serve did not return after Shutdown")
		}
	})
	return s, ln.Addr().String()
}

func dialT(t *testing.T, addr string) *Client {
	t.Helper()
	c, err := Dial(addr, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

// TestRoundTripOps: every op round-trips through a live server.
func TestRoundTripOps(t *testing.T) {
	s, addr := startServer(t, Config{N: 255, K: 239, Depth: 2, Workers: 2})
	c := dialT(t, addr)

	msg := make([]byte, s.Code().FrameK())
	rand.New(rand.NewSource(1)).Read(msg)
	cw, err := c.RSEncode(msg)
	if err != nil {
		t.Fatal(err)
	}
	if len(cw) != s.Code().FrameN() {
		t.Fatalf("codeword %dB, want %d", len(cw), s.Code().FrameN())
	}
	// Corrupt within the correction bound, then decode back.
	cw[0] ^= 0xff
	cw[300] ^= 0x55
	got, err := c.RSDecode(cw)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, msg) {
		t.Fatal("rs round trip mismatch")
	}

	nonce := bytes.Repeat([]byte{9}, NonceSize)
	sealed, err := c.Seal(nonce, []byte("attack at dawn"))
	if err != nil {
		t.Fatal(err)
	}
	pt, err := c.Open(nonce, sealed)
	if err != nil {
		t.Fatal(err)
	}
	if string(pt) != "attack at dawn" {
		t.Fatalf("gcm round trip: %q", pt)
	}
	// Tampered ciphertext must fail with a codec status, not kill the
	// connection.
	sealed[0] ^= 1
	if _, err := c.Open(nonce, sealed); err == nil {
		t.Fatal("tampered open succeeded")
	} else {
		var se *StatusError
		if !errors.As(err, &se) || se.Status != StatusCodecFailed {
			t.Fatalf("tampered open: %v, want StatusCodecFailed", err)
		}
	}

	snap, err := c.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if snap.Config.K != 239 || snap.Config.FrameK != 478 {
		t.Errorf("stats config %+v", snap.Config)
	}
	if snap.Server.Requests < 5 {
		t.Errorf("stats requests = %d, want >= 5", snap.Server.Requests)
	}
	if len(snap.Stages) != 1 || snap.Stages[0].Name != "codec-dispatch" {
		t.Errorf("stats stages %+v", snap.Stages)
	}
}

// TestBatchedRequests: with Config.Batch > 1 a single request may pack
// several interleaver frames. One request stays one pipeline frame and
// one window slot, so the request/response ledger counts it once, and a
// Window's worth of maximum-width pipelined requests still completes
// (the batch must not consume extra slots and wedge the window).
func TestBatchedRequests(t *testing.T) {
	const window = 2
	s, addr := startServer(t, Config{N: 255, K: 239, Depth: 2, Workers: 2, Batch: 4, Window: window})
	c := dialT(t, addr)

	unit := s.Code().FrameK()
	msg := make([]byte, 3*unit) // batched, below the 4-unit cap
	rand.New(rand.NewSource(3)).Read(msg)
	cw, err := c.RSEncode(msg)
	if err != nil {
		t.Fatal(err)
	}
	if len(cw) != 3*s.Code().FrameN() {
		t.Fatalf("batched codeword %dB, want %d", len(cw), 3*s.Code().FrameN())
	}
	cw[0] ^= 0xff
	cw[s.Code().FrameN()+17] ^= 0x55 // error in the second frame of the batch
	got, err := c.RSDecode(cw)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, msg) {
		t.Fatal("batched rs round trip mismatch")
	}

	// Over-wide and ragged payloads are rejected without poisoning the
	// connection.
	if _, err := c.RSEncode(make([]byte, 5*unit)); err == nil {
		t.Fatal("payload above the batch cap accepted")
	}
	if _, err := c.RSEncode(make([]byte, unit+1)); err == nil {
		t.Fatal("ragged payload accepted")
	}

	// Saturate the window with maximum-width requests: completion proves
	// a batched request holds exactly one slot.
	var wg sync.WaitGroup
	errs := make([]error, 2*window)
	for i := range errs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			full := make([]byte, 4*unit)
			rand.New(rand.NewSource(int64(100 + i))).Read(full)
			out, err := c.RSEncode(full)
			if err == nil && len(out) != 4*s.Code().FrameN() {
				err = fmt.Errorf("full-width response %dB", len(out))
			}
			errs[i] = err
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Errorf("pipelined batched request %d: %v", i, err)
		}
	}

	snap, err := c.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if snap.Config.Batch != 4 {
		t.Errorf("stats batch = %d, want 4", snap.Config.Batch)
	}
	// Ledger: encode + decode + 2 rejects + 2*window full-width + stats.
	wantReq := int64(2 + 2 + 2*window + 1)
	if snap.Server.Requests != wantReq {
		t.Errorf("requests = %d, want %d (one per request regardless of width)",
			snap.Server.Requests, wantReq)
	}
	if snap.Server.Rejects != 2 {
		t.Errorf("rejects = %d, want 2", snap.Server.Rejects)
	}
}

// TestConcurrentClients hammers one server from many connections with
// pipelined round trips through a noisy channel — the -race workout for
// the whole mux/dispatch path.
func TestConcurrentClients(t *testing.T) {
	const conns, perConn, window = 4, 8, 4
	s, addr := startServer(t, Config{N: 255, K: 223, Depth: 1, Window: window})
	_ = s
	var wg sync.WaitGroup
	errs := make(chan error, conns)
	for ci := 0; ci < conns; ci++ {
		wg.Add(1)
		go func(ci int) {
			defer wg.Done()
			c, err := Dial(addr, time.Second)
			if err != nil {
				errs <- err
				return
			}
			defer c.Close()
			var inner sync.WaitGroup
			for w := 0; w < window; w++ {
				inner.Add(1)
				go func(w int) {
					defer inner.Done()
					// Channel models hold private RNG state, so each
					// worker corrupts through its own instance.
					ch, err := channel.NewBSC(0.004, int64(ci*100+w+1))
					if err != nil {
						errs <- err
						return
					}
					rng := rand.New(rand.NewSource(int64(ci*100 + w)))
					for i := 0; i < perConn; i++ {
						msg := make([]byte, 223)
						rng.Read(msg)
						cw, err := c.RSEncode(msg)
						if err != nil {
							errs <- fmt.Errorf("conn %d: encode: %w", ci, err)
							return
						}
						corrupted := corruptBytes(ch, cw)
						got, err := c.RSDecode(corrupted)
						if err != nil {
							// The channel occasionally lands past t errors:
							// an uncorrectable word must come back as a
							// structured codec failure, nothing else.
							var se *StatusError
							if errors.As(err, &se) && se.Status == StatusCodecFailed {
								continue
							}
							errs <- fmt.Errorf("conn %d: decode: %w", ci, err)
							return
						}
						if !bytes.Equal(got, msg) {
							errs <- fmt.Errorf("conn %d: round trip mismatch", ci)
							return
						}
					}
				}(w)
			}
			inner.Wait()
		}(ci)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// corruptBytes pushes a byte frame through a channel model (8-bit
// symbols), client-side.
func corruptBytes(ch channel.Channel, b []byte) []byte {
	syms := make([]gf.Elem, len(b))
	for i, v := range b {
		syms[i] = gf.Elem(v)
	}
	out := channel.TransmitSymbols(ch, syms, 8)
	res := make([]byte, len(out))
	for i, v := range out {
		res[i] = byte(v)
	}
	return res
}

// TestStructuredErrors: bad requests get status replies on a connection
// that keeps working afterwards.
func TestStructuredErrors(t *testing.T) {
	_, addr := startServer(t, Config{N: 255, K: 239, Depth: 1})
	c := dialT(t, addr)

	checkStatus := func(err error, want Status) {
		t.Helper()
		var se *StatusError
		if !errors.As(err, &se) {
			t.Fatalf("err = %v, want *StatusError", err)
		}
		if se.Status != want {
			t.Fatalf("status %v, want %v", se.Status, want)
		}
	}
	_, err := c.RSEncode(make([]byte, 10)) // wrong message size
	checkStatus(err, StatusBadRequest)
	_, err = c.Call(OpSeal, []byte("shortnonce"), []byte("x"))
	checkStatus(err, StatusBadRequest)
	_, err = c.Call(Op(77), nil, nil)
	checkStatus(err, StatusUnsupported)
	// Uncorrectable word: valid length, too many errors.
	junk := make([]byte, 255)
	rand.New(rand.NewSource(7)).Read(junk)
	_, err = c.RSDecode(junk)
	checkStatus(err, StatusCodecFailed)

	// The connection survived all of the above.
	msg := make([]byte, 239)
	if _, err := c.RSEncode(msg); err != nil {
		t.Fatalf("connection dead after error replies: %v", err)
	}
}

// TestMalformedFrames: framing violations get a status reply and then
// the connection is closed (the stream cannot be resynchronized).
func TestMalformedFrames(t *testing.T) {
	for _, tc := range []struct {
		name   string
		mutate func(hdr []byte)
		want   Status
	}{
		{"bad magic", func(h []byte) { h[0] = 'Z' }, StatusBadRequest},
		{"bad version", func(h []byte) { h[4] = 9 }, StatusUnsupported},
		{"oversized", func(h []byte) { binary.BigEndian.PutUint32(h[20:], 1<<31) }, StatusTooLarge},
	} {
		t.Run(tc.name, func(t *testing.T) {
			_, addr := startServer(t, Config{N: 255, K: 239, Depth: 1})
			nc, err := net.Dial("tcp", addr)
			if err != nil {
				t.Fatal(err)
			}
			defer nc.Close()
			var buf bytes.Buffer
			if err := writeMessage(&buf, &Message{Op: OpRSEncode, ID: 1, Payload: make([]byte, 239)}); err != nil {
				t.Fatal(err)
			}
			raw := buf.Bytes()
			tc.mutate(raw)
			if _, err := nc.Write(raw); err != nil {
				t.Fatal(err)
			}
			nc.SetReadDeadline(time.Now().Add(2 * time.Second))
			m, err := readMessage(nc, DefaultMaxPayload)
			if err != nil {
				t.Fatalf("no error reply: %v", err)
			}
			if m.Status != tc.want {
				t.Fatalf("reply status %v, want %v", m.Status, tc.want)
			}
			// Then the server closes the connection.
			if _, err := readMessage(nc, DefaultMaxPayload); err == nil {
				t.Fatal("connection still open after framing violation")
			}
		})
	}
}

// TestTruncatedFrameDisconnect: a client that dies mid-frame (header
// promised more bytes than were sent) must not wedge the server.
func TestTruncatedFrameDisconnect(t *testing.T) {
	_, addr := startServer(t, Config{N: 255, K: 239, Depth: 1})
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := writeMessage(&buf, &Message{Op: OpRSEncode, ID: 1, Payload: make([]byte, 239)}); err != nil {
		t.Fatal(err)
	}
	if _, err := nc.Write(buf.Bytes()[:headerSize+100]); err != nil {
		t.Fatal(err)
	}
	nc.Close() // mid-request disconnect

	// The server is still fully alive for other clients.
	c := dialT(t, addr)
	if _, err := c.RSEncode(make([]byte, 239)); err != nil {
		t.Fatalf("server wedged after truncated frame: %v", err)
	}
}

// TestMidFlightDisconnect: a client disconnecting with requests still
// in flight must not break the pipeline or other connections.
func TestMidFlightDisconnect(t *testing.T) {
	s, addr := startServer(t, Config{N: 255, K: 239, Depth: 1, Window: 16})
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	// Fire a burst of valid encodes and hang up without reading replies.
	var buf bytes.Buffer
	for i := 0; i < 16; i++ {
		if err := writeMessage(&buf, &Message{Op: OpRSEncode, ID: uint64(i), Payload: make([]byte, 239)}); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := nc.Write(buf.Bytes()); err != nil {
		t.Fatal(err)
	}
	nc.Close()

	// Survivor connection keeps working.
	c := dialT(t, addr)
	for i := 0; i < 5; i++ {
		if _, err := c.RSEncode(make([]byte, 239)); err != nil {
			t.Fatalf("server wedged after mid-flight disconnect: %v", err)
		}
	}
	// How many of the burst the server framed before the RST killed the
	// socket is timing-dependent, but its own accounting must settle:
	// every framed request ends up answered or counted dropped, none
	// leak. The survivor's 5 responses are part of the same ledger.
	deadline := time.Now().Add(2 * time.Second)
	for {
		snap := s.Snapshot()
		if snap.Server.Requests >= 5 &&
			snap.Server.Responses+snap.Server.Rejects+snap.Server.Dropped == snap.Server.Requests {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("accounting never settled: framed %d, responses %d, rejects %d, dropped %d",
				snap.Server.Requests, snap.Server.Responses, snap.Server.Rejects, snap.Server.Dropped)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestGracefulShutdownDrain: every request accepted before Shutdown is
// answered exactly once before the connections close — no lost, no
// duplicated responses.
func TestGracefulShutdownDrain(t *testing.T) {
	const conns, window, batch = 4, 8, 24
	s, addr := startServer(t, Config{N: 255, K: 239, Depth: 1, Window: window, Workers: 2})

	type connState struct {
		c    *Client
		errs chan error
		wg   sync.WaitGroup
	}
	var clients []*connState
	var started sync.WaitGroup
	for ci := 0; ci < conns; ci++ {
		cs := &connState{errs: make(chan error, batch)}
		c, err := Dial(addr, time.Second)
		if err != nil {
			t.Fatal(err)
		}
		cs.c = c
		clients = append(clients, cs)
		for w := 0; w < batch; w++ {
			cs.wg.Add(1)
			started.Add(1)
			go func(w int) {
				defer cs.wg.Done()
				msg := make([]byte, 239)
				started.Done()
				_, err := cs.c.RSEncode(msg)
				// Accepted-then-drained responses succeed; requests that
				// arrive after the drain line get a clean shutdown status
				// or a closed connection — both acceptable, silence is not.
				if err != nil {
					var se *StatusError
					if errors.As(err, &se) && se.Status == StatusShuttingDown {
						err = nil
					}
				}
				cs.errs <- err
			}(w)
		}
	}
	started.Wait() // every goroutine is running; none need have sent yet
	// Shutdown must not beat every send: wait until the server has framed
	// at least one request, which the drain then has to answer.
	for deadline := time.Now().Add(5 * time.Second); s.Snapshot().Server.Requests < 1; {
		if time.Now().After(deadline) {
			t.Fatal("no request framed within 5s")
		}
		time.Sleep(time.Millisecond)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}

	// Per request the acceptable outcomes are: answered (the drain
	// guarantee), a clean shutting-down status (converted to nil above),
	// or connection-lost for a request the server never framed. What
	// must not happen is silence for a framed request — checked below
	// via the server's own accounting.
	answered := 0
	for _, cs := range clients {
		cs.wg.Wait()
		close(cs.errs)
		for err := range cs.errs {
			if err == nil {
				answered++
			}
		}
		cs.c.Close()
	}
	if answered == 0 {
		t.Fatal("graceful shutdown answered nothing")
	}
	snap := s.Snapshot()
	// Every request the server framed got exactly one reply written — an
	// OK response for requests accepted before the drain line, a
	// shutting-down reject for ones framed after it. Nothing lost,
	// nothing abandoned.
	if snap.Server.Responses+snap.Server.Rejects != snap.Server.Requests {
		t.Errorf("framed %d requests but wrote %d responses + %d rejects",
			snap.Server.Requests, snap.Server.Responses, snap.Server.Rejects)
	}
	if snap.Server.Dropped != 0 {
		t.Errorf("drained shutdown dropped %d responses", snap.Server.Dropped)
	}
	if snap.Server.ConnsActive != 0 {
		t.Errorf("%d connections still active after Shutdown", snap.Server.ConnsActive)
	}
}

// TestShutdownIdleServer: shutdown with no connections returns promptly.
func TestShutdownIdleServer(t *testing.T) {
	s, _ := startServer(t, Config{N: 255, K: 239, Depth: 1})
	ctx, cancel := context.WithTimeout(context.Background(), 3*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
}

// TestNewRejectsBadConfig: codec parameter validation happens up front.
func TestNewRejectsBadConfig(t *testing.T) {
	for _, cfg := range []Config{
		{N: -1, K: 3}, {N: 255, K: 255}, {N: 255, K: 300}, {N: 255, K: 239, Depth: -2},
	} {
		if _, err := New(cfg); err == nil {
			t.Errorf("New(%+v) accepted", cfg)
		}
	}
}
