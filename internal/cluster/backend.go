package cluster

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/server"
)

// BackendSpec names one backend: the GFP1 address the proxy forwards
// to, plus (optionally) the admin HTTP address whose /healthz the
// health checker probes and whose /statsz the fleet aggregator scrapes.
type BackendSpec struct {
	Addr  string // GFP1 TCP address (required)
	Admin string // admin HTTP address ("" = passive health only, no aggregation)
}

// ParseBackendSpec parses "addr" or "addr@adminAddr".
func ParseBackendSpec(s string) (BackendSpec, error) {
	addr, admin, found := strings.Cut(s, "@")
	spec := BackendSpec{Addr: strings.TrimSpace(addr)}
	if found {
		spec.Admin = strings.TrimSpace(admin)
		if spec.Admin == "" {
			return spec, fmt.Errorf("cluster: backend spec %q has an empty admin address", s)
		}
	}
	if spec.Addr == "" {
		return spec, fmt.Errorf("cluster: backend spec %q has an empty address", s)
	}
	return spec, nil
}

// Backend states.
const (
	stateHealthy int32 = iota
	stateEjected
)

// backend is one fleet member: its spec, health state and the one
// GFP1 client connection every forward to it pipelines on. All methods
// are safe for concurrent use.
type backend struct {
	spec BackendSpec
	idx  int

	state atomic.Int32

	// Health bookkeeping (guarded by hmu): consecutive probe/dial
	// failures and successes, fed by both the active checker and passive
	// transport errors.
	hmu           sync.Mutex
	consecFails   int
	consecOKs     int
	lastHealthErr string

	// The shared connection (guarded by cmu), and the dial in flight
	// while it is being (re)established. down is set (under cmu) once
	// the proxy has shut down: no connection is dialed after it.
	cmu      sync.Mutex
	cl       *server.Client
	dial     *dialCall
	dialWait time.Duration
	down     atomic.Bool

	// Counters surfaced per backend on the proxy's admin plane.
	forwards  atomic.Int64 // requests forwarded (attempts, including retries)
	failures  atomic.Int64 // transport-level forward failures
	ejections atomic.Int64 // healthy -> ejected transitions
	readmits  atomic.Int64 // ejected -> healthy transitions
}

// dialCall is one dial of a backend's shared connection; cl and err are
// set before done closes.
type dialCall struct {
	done chan struct{}
	cl   *server.Client
	err  error
}

func newBackend(idx int, spec BackendSpec, dialWait time.Duration) *backend {
	return &backend{spec: spec, idx: idx, dialWait: dialWait}
}

func (b *backend) healthy() bool { return b.state.Load() == stateHealthy }

// stateName renders the backend state for admin surfaces.
func (b *backend) stateName() string {
	if b.healthy() {
		return "healthy"
	}
	return "ejected"
}

// client returns the shared connection. It is dialed on first use, and
// a connection that has failed (a backend closes one left idle past its
// read timeout) is replaced on the next use. Concurrent callers wait
// for one dial and share its result.
func (b *backend) client() (*server.Client, error) {
	b.cmu.Lock()
	if b.down.Load() {
		b.cmu.Unlock()
		return nil, errShutDown
	}
	if cl := b.cl; cl != nil && cl.Err() == nil {
		b.cmu.Unlock()
		return cl, nil
	}
	if d := b.dial; d != nil {
		b.cmu.Unlock()
		<-d.done
		return d.cl, d.err
	}
	d := &dialCall{done: make(chan struct{})}
	b.dial = d
	failed := b.cl
	b.cl = nil
	b.cmu.Unlock()
	if failed != nil {
		failed.Close()
	}
	// Dial without cmu: it can retry for dialWait, and ejection takes
	// cmu to close the connection.
	d.cl, d.err = server.Dial(b.spec.Addr, b.dialWait)
	b.cmu.Lock()
	if d.err == nil && b.down.Load() {
		d.cl.Close()
		d.cl, d.err = nil, errShutDown
	}
	b.dial = nil
	b.cl = d.cl
	b.cmu.Unlock()
	close(d.done)
	return d.cl, d.err
}

// errShutDown fails forwards to a backend once the proxy has shut down.
var errShutDown = errors.New("cluster: proxy shut down")

// shut marks the backend down when the proxy shuts down: no connection
// is dialed to it again, and no forward starts a new attempt on it.
func (b *backend) shut() {
	b.cmu.Lock()
	b.down.Store(true)
	b.cmu.Unlock()
}

// closeClient closes the shared connection (on ejection and Shutdown).
// Calls in flight on it fail; the next forward dials afresh.
func (b *backend) closeClient() {
	b.cmu.Lock()
	cl := b.cl
	b.cl = nil
	b.cmu.Unlock()
	if cl != nil {
		cl.Close()
	}
}
