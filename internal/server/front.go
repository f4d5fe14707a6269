package server

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"time"
)

// Front is the GFP1 connection layer gfserved and gfproxy share: the
// accept loop and connection registry, one read loop per connection,
// the per-connection window and reply outbox, the request ledger and the
// drain. Its owner decides what a request does (the Handler open returns
// for each connection) and what to stop once the drain is over.
//
// A request read off a connection takes one of its window slots (a
// client pipelining deeper waits in its own socket) and goes to the
// connection's Handler, which answers it exactly once with Send or Post,
// from any goroutine. Replies go through the connection's outbox:
// queueing never blocks, and whoever queues a reply while no flusher is
// running starts one. The flusher writes everything queued, flushes
// once the outbox is empty, and exits once nothing more was queued
// meanwhile. The replies a successful flush carried count as written; a
// reply to a failed connection, or one whose write or flush failed,
// counts as dropped. Either way the request's window slot is released
// and its books closed (Reply.Done).
type Front struct {
	name                      string // error and log prefix
	window, maxPayload        int
	readTimeout, writeTimeout time.Duration
	logfn                     func(format string, args ...any)
	open                      func(*Conn) Handler
	stop                      func()

	mu       sync.Mutex
	ln       net.Listener
	conns    map[*Conn]struct{}
	serving  bool
	draining bool

	readers sync.WaitGroup // connection read loops
	pending sync.WaitGroup // requests read and not yet written out or dropped

	ctr Ledger
}

// Handler handles one request read off its connection at readAt. It
// holds one of the connection's window slots and must answer the request
// exactly once, with the connection's Send or Post, from any goroutine.
type Handler func(m *Message, readAt time.Time)

// NewFront builds a front end that reads cfg's Window, MaxPayload,
// ReadTimeout, WriteTimeout and Logf. open is called once per connection
// and returns the Handler for its requests; stop runs once, when
// Shutdown has drained or cut every connection. name prefixes errors and
// log lines.
func NewFront(name string, cfg Config, open func(*Conn) Handler, stop func()) *Front {
	cfg = cfg.withDefaults()
	return &Front{
		name:         name,
		window:       cfg.Window,
		maxPayload:   cfg.MaxPayload,
		readTimeout:  cfg.ReadTimeout,
		writeTimeout: cfg.WriteTimeout,
		logfn:        cfg.Logf,
		open:         open,
		stop:         stop,
		conns:        make(map[*Conn]struct{}),
	}
}

func (f *Front) logf(format string, args ...any) {
	if f.logfn != nil {
		f.logfn(f.name+": "+format, args...)
	}
}

// Ledger returns the front's live request ledger.
func (f *Front) Ledger() *Ledger { return &f.ctr }

// ListenAndServe listens on addr and calls Serve.
func (f *Front) ListenAndServe(addr string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	return f.Serve(ln)
}

// Serve accepts connections on ln until Shutdown (which closes ln) or a
// listener failure. It returns nil after a clean Shutdown.
func (f *Front) Serve(ln net.Listener) error {
	f.mu.Lock()
	if f.draining {
		// Shutdown won the race to start: nothing to serve, cleanly.
		f.mu.Unlock()
		ln.Close()
		return nil
	}
	if f.serving {
		f.mu.Unlock()
		ln.Close()
		return fmt.Errorf("%s: Serve called twice", f.name)
	}
	f.serving = true
	f.ln = ln
	f.mu.Unlock()

	for {
		nc, err := ln.Accept()
		if err != nil {
			if f.isDraining() {
				return nil
			}
			return err
		}
		f.ServeConn(nc)
	}
}

// Addr returns the listener address once Serve has been called (nil
// before).
func (f *Front) Addr() net.Addr {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.ln == nil {
		return nil
	}
	return f.ln.Addr()
}

// Accepting reports nil while Serve is running and Shutdown has not
// begun, for health endpoints.
func (f *Front) Accepting() error {
	f.mu.Lock()
	defer f.mu.Unlock()
	switch {
	case f.draining:
		return errors.New("draining")
	case !f.serving:
		return errors.New("not serving")
	}
	return nil
}

func (f *Front) isDraining() bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.draining
}

// ServeConn registers one established connection and starts its read
// loop, unless the front is draining (then it closes nc). Serve calls it
// for every accepted connection.
func (f *Front) ServeConn(nc net.Conn) {
	host := nc.RemoteAddr().String()
	if h, _, err := net.SplitHostPort(host); err == nil {
		host = h
	}
	c := &Conn{
		f:    f,
		nc:   nc,
		host: host,
		bw:   bufio.NewWriterSize(nc, 64<<10),
		sem:  make(chan struct{}, f.window),
		dead: make(chan struct{}),
	}
	f.mu.Lock()
	if f.draining {
		f.mu.Unlock()
		nc.Close()
		return
	}
	f.conns[c] = struct{}{}
	f.readers.Add(1)
	f.mu.Unlock()
	f.ctr.ConnsAccepted.Add(1)
	f.ctr.ConnsActive.Add(1)
	go c.readLoop(f.open(c))
}

// Quiesce blocks until every read loop has exited and every request read
// has been written out or dropped. Connections still open keep reading,
// so the caller must first stop them (Shutdown does).
func (f *Front) Quiesce() {
	f.readers.Wait()
	f.pending.Wait()
}

// Shutdown stops the front: it closes the listener and stops every
// connection reading, waits until every request already read has been
// written out or dropped, closes the connections, runs stop and returns.
// If ctx expires first, it cuts every connection, runs stop and returns
// ctx.Err() at once; replies still to come are dropped.
func (f *Front) Shutdown(ctx context.Context) error {
	f.mu.Lock()
	already := f.draining
	f.draining = true
	if f.ln != nil {
		f.ln.Close()
	}
	// Kick blocked readers out of their socket reads; they observe
	// draining and stop instead of treating it as an idle timeout.
	for c := range f.conns {
		c.nc.SetReadDeadline(time.Now())
	}
	f.mu.Unlock()
	if already {
		return fmt.Errorf("%s: Shutdown called twice", f.name)
	}

	quiet := make(chan struct{})
	go func() {
		f.Quiesce()
		close(quiet)
	}()
	var err error
	select {
	case <-quiet:
	case <-ctx.Done():
		err = ctx.Err()
	}
	f.mu.Lock()
	conns := make([]*Conn, 0, len(f.conns))
	for c := range f.conns {
		conns = append(conns, c)
	}
	f.mu.Unlock()
	for _, c := range conns {
		c.fail()
	}
	f.stop()
	return err
}

// armRead re-arms the connection's idle read deadline for the next
// request when due, unless the front is draining (Shutdown's deadline
// kick must stay in force). It returns false when draining.
func (f *Front) armRead(c *Conn) bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.draining {
		return false
	}
	c.rd.arm(c.nc.SetReadDeadline, f.readTimeout)
	return true
}

func (f *Front) remove(c *Conn) {
	f.mu.Lock()
	delete(f.conns, c)
	f.mu.Unlock()
	f.ctr.ConnsActive.Add(-1)
}

// deadline re-arms one deadline of a connection lazily: only once the
// armed deadline is more than an eighth of its limit old, which spares
// the runtime poller a timer update on nearly every request. An Arm at
// time t leaves the deadline between t+7/8·limit and t+limit. The zero
// value is ready to use; it is not safe for concurrent use.
type deadline struct{ armed time.Time }

// arm pushes the deadline out to limit from now through set (a
// net.Conn's SetReadDeadline or SetWriteDeadline) when the armed one is
// more than limit/8 old. It does nothing for limit 0 (no deadline).
func (d *deadline) arm(set func(time.Time) error, limit time.Duration) {
	if limit <= 0 {
		return
	}
	if now := time.Now(); now.Sub(d.armed) > limit/8 {
		set(now.Add(limit))
		d.armed = now
	}
}

// Reply is one response on its way through a connection's outbox.
type Reply struct {
	Msg *Message
	// Done, when non-nil, closes the request's books once the reply has
	// been written out or dropped.
	Done Finisher

	unled bool // a framing-error report, outside the request ledger
}

// Finisher is told how a reply ended: its status, and whether it was
// written out (false: dropped).
type Finisher interface {
	Finish(st Status, written bool)
}

// Conn is one client connection of a Front.
type Conn struct {
	f    *Front
	nc   net.Conn
	host string        // remote host, the SLO and wide-event tenant key
	sem  chan struct{} // window slots, held from read until written out or dropped
	dead chan struct{} // closed with the socket
	rd   deadline      // read deadline; armed only by the read loop

	mu       sync.Mutex
	q        []Reply // the outbox
	flushing bool    // a flusher is running
	closed   bool    // new replies are dropped; the socket closes once no flusher runs
	cut      bool    // the socket is closed: queued replies are dropped too

	// Owned by the running flusher.
	bw    *bufio.Writer
	wd    deadline
	spare []Reply // the outbox's other backing array
	out   []Reply // taken off the outbox since the last flush
	werr  error   // the first failed write; later replies are dropped

	closeOnce sync.Once
}

// RemoteAddr returns the client's address.
func (c *Conn) RemoteAddr() net.Addr { return c.nc.RemoteAddr() }

// Host returns the client's host, without the port.
func (c *Conn) Host() string { return c.host }

// Send queues r and, if no flusher is running, writes the outbox out
// itself; for goroutines that may wait on the socket, such as a read
// loop or a request's own handler goroutine.
func (c *Conn) Send(r Reply) {
	if c.queue(r) {
		c.flush()
	}
}

// Post queues r and, if no flusher is running, starts one on a new
// goroutine; for goroutines that must never wait on a socket, such as
// pipeline workers.
func (c *Conn) Post(r Reply) {
	if c.queue(r) {
		go c.flush()
	}
}

// queue adds r to the outbox without blocking and reports whether the
// caller must run the flusher. A reply to a closed connection is dropped.
func (c *Conn) queue(r Reply) bool {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		c.settle(false, r)
		return false
	}
	c.q = append(c.q, r)
	start := !c.flushing
	c.flushing = true
	c.mu.Unlock()
	return start
}

// flush writes the outbox out: it takes and writes everything queued,
// again while more was queued during the writes, and flushes once when
// it finds the outbox empty. It exits when the outbox is still empty
// after a flush.
func (c *Conn) flush() {
	for {
		c.mu.Lock()
		batch, cut := c.q, c.cut
		if len(batch) == 0 {
			if len(c.out) == 0 {
				c.flushing = false
				closed := c.closed
				c.mu.Unlock()
				if closed {
					c.close()
				}
				return
			}
			c.mu.Unlock()
			c.flushOut()
			continue
		}
		c.q = c.spare
		c.mu.Unlock()

		if cut && c.werr == nil {
			c.werr = net.ErrClosed // failed elsewhere: drop, don't write
		}
		if c.werr == nil {
			c.wd.arm(c.nc.SetWriteDeadline, c.f.writeTimeout)
			for i := 0; i < len(batch) && c.werr == nil; i++ {
				if err := writeMessage(c.bw, batch[i].Msg); err != nil {
					c.writeFailed(err)
				}
			}
		}
		c.out = append(c.out, batch...)
		clear(batch)
		c.spare = batch[:0]
	}
}

// flushOut flushes what was written since the last flush and settles
// it: written out if every write and the flush succeeded, dropped
// otherwise.
func (c *Conn) flushOut() {
	if c.werr == nil {
		if err := c.bw.Flush(); err != nil {
			c.writeFailed(err)
		}
	}
	c.settle(c.werr == nil, c.out...)
	clear(c.out)
	c.out = c.out[:0]
}

// writeFailed records a failed write or flush and fails the connection.
func (c *Conn) writeFailed(err error) {
	c.werr = err
	c.f.logf("write to %v: %v", c.nc.RemoteAddr(), err)
	c.fail()
}

// settle closes the books on replies that were written out or dropped:
// each ledgered one becomes exactly one of responses (an OK reply was
// written), rejects (an error-status reply was written) or dropped,
// releases its window slot and its pending mark, and runs its Done.
func (c *Conn) settle(written bool, rs ...Reply) {
	ctr := &c.f.ctr
	held := 0
	for _, r := range rs {
		if written {
			ctr.BytesOut.Add(int64(headerSize + len(r.Msg.Params) + len(r.Msg.Payload)))
		}
		if !r.unled {
			held++
			switch {
			case !written:
				ctr.Dropped.Add(1)
			case r.Msg.Status == StatusOK:
				ctr.Responses.Add(1)
			default:
				ctr.Rejects.Add(1)
			}
		}
		if r.Done != nil {
			r.Done.Finish(r.Msg.Status, written)
		}
	}
	for i := 0; i < held; i++ {
		<-c.sem
	}
	c.f.pending.Add(-held)
}

// fail tears the connection down at once: the socket closes, which ends
// the read loop and any write in progress, and every reply still queued
// or yet to come is dropped.
func (c *Conn) fail() {
	c.mu.Lock()
	c.closed, c.cut = true, true
	c.mu.Unlock()
	c.close()
}

// closeWhenWritten bars further replies and closes the connection once
// the outbox has written out what is already queued.
func (c *Conn) closeWhenWritten() {
	c.mu.Lock()
	c.closed = true
	idle := !c.flushing
	c.mu.Unlock()
	if idle {
		c.close()
	}
}

func (c *Conn) close() {
	c.closeOnce.Do(func() {
		close(c.dead)
		c.nc.Close()
		c.f.remove(c)
	})
}

// readLoop frames requests off the socket and hands each to handle,
// holding a window slot, until the client disconnects, a framing
// violation poisons the stream, the idle deadline expires, or the front
// drains.
func (c *Conn) readLoop(handle Handler) {
	f := c.f
	defer f.readers.Done()
	br := bufio.NewReaderSize(c.nc, 64<<10)
	for {
		if !f.armRead(c) {
			return // draining: stop intake, leave teardown to Shutdown
		}
		m, err := readMessage(br, f.maxPayload)
		if err != nil {
			if f.isDraining() {
				return
			}
			var pe *ProtoError
			if errors.As(err, &pe) {
				// Report the violation, then close once it is written: the
				// stream cannot be resynchronized. No request was counted
				// for the garbage bytes, so the reply is unledgered;
				// ProtoErrors counts these separately.
				f.ctr.ProtoErrors.Add(1)
				c.Send(Reply{Msg: &Message{Status: pe.Status, Payload: []byte(pe.Error())}, unled: true})
				c.closeWhenWritten()
				return
			}
			if !errors.Is(err, io.EOF) {
				f.logf("read from %v: %v", c.nc.RemoteAddr(), err)
			}
			c.fail()
			return
		}
		readAt := time.Now()
		f.ctr.Requests.Add(1)
		f.ctr.BytesIn.Add(int64(headerSize + len(m.Params) + len(m.Payload)))
		select {
		case c.sem <- struct{}{}:
		case <-c.dead:
			f.ctr.Dropped.Add(1) // framed, but the connection died first
			return
		}
		f.pending.Add(1)
		handle(m, readAt)
	}
}
