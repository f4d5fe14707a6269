package server

import (
	"bufio"
	"encoding/json"
	"fmt"
	"net"
	"os"
	"sync"
	"sync/atomic"
	"time"
)

// StatusError is the typed error for a non-OK response status; the
// response's payload (the server's message) is preserved.
type StatusError struct {
	Op     Op
	Status Status
	Msg    string
}

// Error implements error.
func (e *StatusError) Error() string {
	return fmt.Sprintf("server: %v: %v: %s", e.Op, e.Status, e.Msg)
}

// Client is a connection to a codec server. Call (and the typed
// wrappers) are safe for concurrent use: concurrent callers pipeline
// their requests on the single connection and responses are matched
// back by request id, in whatever order the server finishes them.
type Client struct {
	nc net.Conn
	bw *bufio.Writer

	wmu     sync.Mutex   // serializes writes
	writers atomic.Int32 // callers writing or waiting for wmu

	mu      sync.Mutex
	nextID  uint64
	pending map[uint64]chan *Message
	err     error         // terminal receive/connection error
	closed  chan struct{} // closed when the read loop exits
}

// Dial connects to a codec server, retrying refused connections until
// wait has elapsed (wait 0 means a single attempt) — handy while a
// freshly spawned server is still binding its listener.
func Dial(addr string, wait time.Duration) (*Client, error) {
	deadline := time.Now().Add(wait)
	for {
		nc, err := net.Dial("tcp", addr)
		if err == nil {
			return NewClient(nc), nil
		}
		if time.Now().After(deadline) {
			return nil, err
		}
		time.Sleep(50 * time.Millisecond)
	}
}

// NewClient wraps an established connection and starts its read loop.
func NewClient(nc net.Conn) *Client {
	c := &Client{
		nc:      nc,
		bw:      bufio.NewWriterSize(nc, 64<<10),
		pending: make(map[uint64]chan *Message),
		closed:  make(chan struct{}),
	}
	go c.readLoop()
	return c
}

func (c *Client) readLoop() {
	br := bufio.NewReaderSize(c.nc, 64<<10)
	for {
		m, err := readMessage(br, DefaultMaxPayload)
		if err != nil {
			c.fail(fmt.Errorf("server: connection lost: %w", err))
			return
		}
		c.mu.Lock()
		ch := c.pending[m.ID]
		delete(c.pending, m.ID)
		c.mu.Unlock()
		if ch != nil {
			ch <- m
		}
	}
}

// fail records the terminal error and wakes every waiting call.
func (c *Client) fail(err error) {
	c.mu.Lock()
	if c.err == nil {
		c.err = err
		close(c.closed)
	}
	c.mu.Unlock()
}

// Err returns the error that ended the connection, or nil while it can
// still carry calls.
func (c *Client) Err() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.err
}

// Close tears the connection down; in-flight calls fail.
func (c *Client) Close() error {
	err := c.nc.Close()
	c.fail(fmt.Errorf("server: client closed"))
	return err
}

// Call sends one request and blocks for its response. A non-OK status
// comes back as a *StatusError (alongside the raw response).
func (c *Client) Call(op Op, params, payload []byte) (*Message, error) {
	return c.Do(&Message{Op: op, Params: params, Payload: payload})
}

// Do sends one caller-built request and blocks for its response. The
// request id is assigned by the client (any value in m.ID is
// overwritten); Flags, Params and Payload go out verbatim — the entry
// point for traced callers and GFP1 intermediaries that need more than
// Call's (op, params, payload) surface. A non-OK status comes back as a
// *StatusError (alongside the raw response).
func (c *Client) Do(m *Message) (*Message, error) {
	return c.DoTimeout(m, 0)
}

// DoTimeout is Do bounded by d (0 means no bound). A call still
// unanswered after d is abandoned: its id is dropped, so a late reply
// is discarded, and the error wraps os.ErrDeadlineExceeded. The
// connection stays up for the other calls on it.
func (c *Client) DoTimeout(m *Message, d time.Duration) (*Message, error) {
	ch := make(chan *Message, 1)
	c.mu.Lock()
	if c.err != nil {
		err := c.err
		c.mu.Unlock()
		return nil, err
	}
	id := c.nextID
	c.nextID++
	c.pending[id] = ch
	c.mu.Unlock()

	m.ID = id
	// Concurrent callers share a flush: the last one through wmu flushes
	// the requests the others left in the buffer.
	c.writers.Add(1)
	c.wmu.Lock()
	err := writeMessage(c.bw, m)
	if c.writers.Add(-1) == 0 {
		if ferr := c.bw.Flush(); err == nil {
			err = ferr
		}
	}
	c.wmu.Unlock()
	if err != nil {
		c.forget(id)
		c.fail(fmt.Errorf("server: send: %w", err))
		return nil, err
	}

	var expired <-chan time.Time
	if d > 0 {
		// Stopped on return: under the module's go 1.22 timer semantics
		// an unstopped timer stays live until it fires.
		t := time.NewTimer(d)
		defer t.Stop()
		expired = t.C
	}
	select {
	case resp := <-ch:
		if resp.Status != StatusOK {
			return resp, &StatusError{Op: resp.Op, Status: resp.Status, Msg: string(resp.Payload)}
		}
		return resp, nil
	case <-c.closed:
		c.forget(id)
		return nil, c.Err()
	case <-expired:
		c.forget(id)
		return nil, fmt.Errorf("server: %v: no reply within %v: %w", m.Op, d, os.ErrDeadlineExceeded)
	}
}

// forget drops a pending call; a reply that arrives for it later is
// discarded by the read loop.
func (c *Client) forget(id uint64) {
	c.mu.Lock()
	delete(c.pending, id)
	c.mu.Unlock()
}

// RSEncode encodes a k×depth-byte message into an n×depth-byte frame.
func (c *Client) RSEncode(msg []byte) ([]byte, error) {
	m, err := c.Call(OpRSEncode, nil, msg)
	if err != nil {
		return nil, err
	}
	return m.Payload, nil
}

// RSDecode corrects an n×depth-byte received frame back to its message.
func (c *Client) RSDecode(recv []byte) ([]byte, error) {
	m, err := c.Call(OpRSDecode, nil, recv)
	if err != nil {
		return nil, err
	}
	return m.Payload, nil
}

// Seal AES-GCM-encrypts plaintext under the client-chosen 12-byte nonce.
func (c *Client) Seal(nonce, plaintext []byte) ([]byte, error) {
	m, err := c.Call(OpSeal, nonce, plaintext)
	if err != nil {
		return nil, err
	}
	return m.Payload, nil
}

// Open verifies and decrypts Seal's output.
func (c *Client) Open(nonce, sealed []byte) ([]byte, error) {
	m, err := c.Call(OpOpen, nonce, sealed)
	if err != nil {
		return nil, err
	}
	return m.Payload, nil
}

// ECDHDerive sends an SEC 1 uncompressed public point and returns the
// ECDH shared secret (the x-coordinate of serverScalar * peer).
func (c *Client) ECDHDerive(peer []byte) ([]byte, error) {
	m, err := c.Call(OpECDHDerive, nil, peer)
	if err != nil {
		return nil, err
	}
	return m.Payload, nil
}

// ECDSASign signs a 1..64-byte digest under the server's fleet key and
// returns the r||s signature. Signing is deterministic (RFC 6979), so
// repeated calls — on any backend sharing the key — return identical
// bytes.
func (c *Client) ECDSASign(digest []byte) ([]byte, error) {
	m, err := c.Call(OpECDSASign, nil, digest)
	if err != nil {
		return nil, err
	}
	return m.Payload, nil
}

// ECDSAVerify checks an r||s signature over digest against an SEC 1
// uncompressed public point; the status carries the verdict (nil means
// the signature verifies).
func (c *Client) ECDSAVerify(pub, sig, digest []byte) error {
	payload := make([]byte, 0, len(pub)+len(sig)+len(digest))
	payload = append(payload, pub...)
	payload = append(payload, sig...)
	payload = append(payload, digest...)
	_, err := c.Call(OpECDSAVerify, nil, payload)
	return err
}

// SecureSession runs the handshake: the client's public point and an
// opaque challenge go up; the raw response (ephemeral point, GCM nonce,
// sealed challenge) comes back for ecc.OpenSessionResponse.
func (c *Client) SecureSession(clientPub, challenge []byte) ([]byte, error) {
	payload := make([]byte, 0, len(clientPub)+len(challenge))
	payload = append(payload, clientPub...)
	payload = append(payload, challenge...)
	m, err := c.Call(OpSecureSession, nil, payload)
	if err != nil {
		return nil, err
	}
	return m.Payload, nil
}

// Stats fetches the server's statistics snapshot.
func (c *Client) Stats() (*StatsSnapshot, error) {
	m, err := c.Call(OpStats, nil, nil)
	if err != nil {
		return nil, err
	}
	var snap StatsSnapshot
	if err := json.Unmarshal(m.Payload, &snap); err != nil {
		return nil, fmt.Errorf("server: stats payload: %w", err)
	}
	return &snap, nil
}
