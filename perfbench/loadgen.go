package main

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/server"
)

// tick is the paced phase's release grid: the generator wakes once per
// tick that has arrivals, sends them together, and times each from its
// due tick. One wake-up per tick keeps the generator's own CPU small.
const tick = time.Millisecond

// arrivalTicks returns n Poisson arrival times at the given mean rate,
// as due ticks (each arrival is released at the first tick at or after
// it). The exponential gaps are scaled so that the last arrival falls
// exactly at n/rate: every seed offers exactly the configured mean
// rate, and only the arrival pattern varies.
func arrivalTicks(seed int64, n int, rate float64) []int64 {
	rng := rand.New(rand.NewSource(seed))
	at := make([]float64, n)
	sum := 0.0
	for i := range at {
		sum += rng.ExpFloat64()
		at[i] = sum
	}
	span := float64(n) / rate * float64(time.Second/tick)
	ticks := make([]int64, n)
	for i, a := range at {
		t := int64(math.Ceil(a / sum * span))
		if t < 1 {
			t = 1
		}
		ticks[i] = t
	}
	return ticks
}

// sleepUntil blocks until due after start. Go's timers wake through the
// network poller, whose waits have millisecond granularity, so a sleep
// to the next tick would overshoot by up to a tick; nanosleep blocks
// just this goroutine's thread for the exact remainder.
func sleepUntil(start time.Time, due time.Duration) {
	for {
		d := due - time.Since(start)
		if d <= 0 {
			return
		}
		ts := syscall.NsecToTimespec(int64(d))
		_ = syscall.Nanosleep(&ts, nil) // EINTR: the loop sleeps the rest
	}
}

// record is one request of a phase. Times are nanoseconds since the
// phase started; reply 0 means no reply arrived. Records hold no
// pointers, so the GC never scans them.
type record struct {
	due, sent, reply int64
	// off and n locate a kept ECC reply in the phase's arena of the
	// connection it came back on.
	off, n int32
	status server.Status
	conn   uint8
	ok     bool
}

// phase is one pass of requests over the stack. Request i sends pool
// entry order[i], with id phase.id<<32 | i.
type phase struct {
	name   string
	id     uint64
	pool   []*request
	order  []int32
	recs   []record
	traced bool // record send times

	// arenas keep the ECC replies for the checks after the timed phases,
	// one per connection, each appended to by that connection's reader.
	arenas [numConns][]byte

	start  time.Time
	closed bool         // closed loop: each reply sends the next request
	next   atomic.Int64 // closed loop: next request to send
	left   atomic.Int64 // replies outstanding
	done   chan struct{}
}

// newPhase makes a phase of n requests, n a multiple of the pool size:
// whole pool cycles, each in its own seeded order, so the phase sends
// the exact op shares and no one arrangement of the pool repeats.
func newPhase(name string, id uint64, pool []*request, n int, seed int64, traced bool) *phase {
	rng := rand.New(rand.NewSource(seed))
	order := make([]int32, 0, n)
	for len(order) < n {
		for _, j := range rng.Perm(len(pool)) {
			order = append(order, int32(j))
		}
	}
	return &phase{name: name, id: id, pool: pool, order: order[:n], recs: make([]record, n),
		traced: traced, done: make(chan struct{})}
}

func (ph *phase) req(i int) *request { return ph.pool[ph.order[i]] }

// payload is request i's kept ECC reply.
func (ph *phase) payload(i int) []byte {
	r := &ph.recs[i]
	return ph.arenas[r.conn][r.off : r.off+r.n]
}

// latencies returns the latency in ms of each request keep selects
// (nil keeps all): from its due tick in a paced phase, from its send in
// a traced closed loop, to its verified reply. A failed request is +Inf.
func (ph *phase) latencies(keep func(*request) bool) []float64 {
	out := make([]float64, 0, len(ph.recs))
	for i := range ph.recs {
		r := &ph.recs[i]
		if keep != nil && !keep(ph.req(i)) {
			continue
		}
		from := r.due
		if ph.closed {
			from = r.sent
		}
		if !r.ok || r.reply == 0 {
			out = append(out, math.Inf(1))
			continue
		}
		out = append(out, float64(r.reply-from)/1e6)
	}
	return out
}

// counts returns the phase's attempted, ok and failed requests.
func (ph *phase) counts() (attempted, ok, failed int) {
	for i := range ph.recs {
		if ph.recs[i].ok {
			ok++
		}
	}
	return len(ph.recs), ok, len(ph.recs) - ok
}

// client drives the stack over a few GFP1 connections with its own
// framing, so reply times are taken where the reply is read.
type client struct {
	conns   []*clientConn
	cur     atomic.Pointer[phase]
	sent    atomic.Int64 // requests written, all phases
	wg      sync.WaitGroup
	closing atomic.Bool

	failOnce sync.Once
	failed   chan struct{}
	err      error
}

type clientConn struct {
	c   *client
	idx int
	nc  net.Conn
	wmu sync.Mutex
	bw  *bufio.Writer
}

func dialClient(addr string, conns int) (*client, error) {
	c := &client{failed: make(chan struct{})}
	for i := 0; i < conns; i++ {
		nc, err := net.Dial("tcp", addr)
		if err != nil {
			c.close()
			return nil, err
		}
		cc := &clientConn{c: c, idx: i, nc: nc, bw: bufio.NewWriterSize(nc, 64<<10)}
		c.conns = append(c.conns, cc)
		c.wg.Add(1)
		go cc.readLoop()
	}
	return c, nil
}

func (c *client) fail(err error) {
	c.failOnce.Do(func() {
		c.err = err
		close(c.failed)
	})
}

// close tears the connections down and waits for the read loops.
func (c *client) close() {
	c.closing.Store(true)
	for _, cc := range c.conns {
		cc.nc.Close()
	}
	c.wg.Wait()
}

// reply is one decoded GFP1 reply; payload aliases the reader's buffer
// until the next read.
type reply struct {
	id      uint64
	status  server.Status
	payload []byte
}

// replyReader decodes GFP1 frames (see docs/SERVER.md) into one reused
// buffer, so the generator allocates nothing per reply and adds no GC
// work to what it measures.
type replyReader struct {
	br  *bufio.Reader
	hdr [server.HeaderSize]byte
	buf []byte
}

func (rr *replyReader) read() (reply, error) {
	h := rr.hdr[:]
	if _, err := io.ReadFull(rr.br, h); err != nil {
		return reply{}, err
	}
	if binary.BigEndian.Uint32(h) != server.Magic || h[4] != server.Version {
		return reply{}, fmt.Errorf("bad reply header % x", h[:8])
	}
	np, nl := binary.BigEndian.Uint32(h[16:]), binary.BigEndian.Uint32(h[20:])
	if np > server.MaxParams || nl > server.DefaultMaxPayload {
		return reply{}, fmt.Errorf("reply of %d+%d bytes exceeds the frame guards", np, nl)
	}
	n := int(np + nl)
	if cap(rr.buf) < n {
		rr.buf = make([]byte, n)
	}
	if _, err := io.ReadFull(rr.br, rr.buf[:n]); err != nil {
		return reply{}, err
	}
	return reply{
		id:      binary.BigEndian.Uint64(h[8:]),
		status:  server.Status(binary.BigEndian.Uint16(h[6:]) &^ server.FlagTraced),
		payload: rr.buf[np:n],
	}, nil
}

func (cc *clientConn) readLoop() {
	defer cc.c.wg.Done()
	rr := &replyReader{br: bufio.NewReaderSize(cc.nc, 64<<10)}
	for {
		m, err := rr.read()
		if err != nil {
			if !cc.c.closing.Load() {
				cc.c.fail(fmt.Errorf("connection %d: %w", cc.idx, err))
			}
			return
		}
		ph := cc.c.cur.Load()
		i := int(uint32(m.id))
		if ph == nil || m.id>>32 != ph.id || i >= len(ph.recs) {
			cc.c.fail(fmt.Errorf("reply id %#x belongs to no request in flight", m.id))
			return
		}
		ph.complete(cc, i, m)
	}
}

// complete records request i's reply and, in a closed loop, sends the
// next request on the same connection.
func (ph *phase) complete(cc *clientConn, i int, m reply) {
	r := &ph.recs[i]
	r.reply = int64(time.Since(ph.start))
	r.status = m.status
	req := ph.req(i)
	r.ok = req.checkNow(m.status, m.payload)
	if req.want == nil {
		a := &ph.arenas[cc.idx]
		r.off, r.n = int32(len(*a)), int32(len(m.payload))
		*a = append(*a, m.payload...)
	}
	if ph.closed {
		ph.sendNext(cc)
	}
	if ph.left.Add(-1) == 0 {
		close(ph.done)
	}
}

func (ph *phase) sendNext(cc *clientConn) {
	if i := int(ph.next.Add(1) - 1); i < len(ph.recs) {
		if err := cc.send(ph, i, true); err != nil {
			cc.c.fail(err)
		}
	}
}

// send writes request i of ph, flushing when asked.
func (cc *clientConn) send(ph *phase, i int, flush bool) error {
	req := ph.req(i)
	r := &ph.recs[i]
	cc.wmu.Lock()
	defer cc.wmu.Unlock()
	r.conn = uint8(cc.idx)
	if ph.traced {
		r.sent = int64(time.Since(ph.start))
	}
	m := server.Message{Op: req.spec.op, ID: ph.id<<32 | uint64(i), Params: req.params, Payload: req.payload}
	err := server.WriteResponse(cc.bw, &m)
	if err == nil && flush {
		err = cc.bw.Flush()
	}
	if err != nil {
		return fmt.Errorf("connection %d: send: %w", cc.idx, err)
	}
	cc.c.sent.Add(1)
	return nil
}

func (cc *clientConn) flush() error {
	cc.wmu.Lock()
	defer cc.wmu.Unlock()
	return cc.bw.Flush()
}

func (c *client) begin(ph *phase) {
	ph.left.Store(int64(len(ph.recs)))
	ph.start = time.Now()
	c.cur.Store(ph)
}

// wait blocks until every reply of ph arrived, the client failed, or
// limit passed.
func (c *client) wait(ph *phase, limit time.Duration) error {
	t := time.NewTimer(limit)
	defer t.Stop()
	select {
	case <-ph.done:
		return nil
	case <-c.failed:
		return c.err
	case <-t.C:
		return fmt.Errorf("phase %s: %d of %d replies missing after %v",
			ph.name, ph.left.Load(), len(ph.recs), limit)
	}
}

// runClosed runs ph as a closed loop with window requests in flight on
// each connection: every reply sends the next request.
func (c *client) runClosed(ph *phase, window int, limit time.Duration) error {
	if len(ph.recs) == 0 {
		return errors.New("empty phase")
	}
	ph.closed = true
	c.begin(ph)
	for j := 0; j < window; j++ {
		for _, cc := range c.conns {
			ph.sendNext(cc)
		}
	}
	return c.wait(ph, limit)
}

// runPaced runs ph as an open loop: request i is released at due tick
// ticks[i], whether or not earlier replies have arrived, on connection
// i mod conns.
func (c *client) runPaced(ph *phase, ticks []int64, limit time.Duration) error {
	c.begin(ph)
	n := len(ph.recs)
	for i := 0; i < n; {
		t := ticks[i]
		due := time.Duration(t) * tick
		sleepUntil(ph.start, due)
		for ; i < n && ticks[i] == t; i++ {
			ph.recs[i].due = int64(due)
			if err := c.conns[i%len(c.conns)].send(ph, i, false); err != nil {
				return err
			}
		}
		for _, cc := range c.conns {
			if err := cc.flush(); err != nil {
				return err
			}
		}
	}
	return c.wait(ph, limit)
}
