package cluster

import (
	"fmt"
	"io"
	"net"
	"net/http"
	"sync"
	"time"
)

// health is the active backend checker: one goroutine probing every
// backend each interval, plus the passive failure reports the
// forwarding path files when a dial or in-flight call dies. Both feed
// the same consecutive-outcome counters: FailAfter consecutive failures
// eject a backend (its connection is closed, the ring skips it),
// ReadmitAfter consecutive successful probes readmit it. A backend with
// an admin address is probed through its /healthz — which a gfserved
// only answers 200 after its datapath self-test has passed — while a
// backend without one is probed with a bare TCP dial of its GFP1
// address (liveness only).
type health struct {
	p                       *Proxy
	interval                time.Duration
	timeout                 time.Duration
	failAfter, readmitAfter int

	client *http.Client

	stopOnce sync.Once
	stop     chan struct{}
	done     chan struct{}
}

func newHealth(p *Proxy, interval, timeout time.Duration, failAfter, readmitAfter int) *health {
	h := &health{
		p:            p,
		interval:     interval,
		timeout:      timeout,
		failAfter:    failAfter,
		readmitAfter: readmitAfter,
		client:       &http.Client{Timeout: timeout},
		stop:         make(chan struct{}),
		done:         make(chan struct{}),
	}
	go h.loop()
	return h
}

func (h *health) Close() {
	h.stopOnce.Do(func() { close(h.stop) })
	<-h.done
}

func (h *health) loop() {
	defer close(h.done)
	t := time.NewTicker(h.interval)
	defer t.Stop()
	for {
		// Probe immediately on start, then each tick: a backend that died
		// before the proxy came up is ejected within one interval.
		h.probeAll()
		select {
		case <-h.stop:
			return
		case <-t.C:
		}
	}
}

func (h *health) probeAll() {
	var wg sync.WaitGroup
	for _, b := range h.p.backends {
		wg.Add(1)
		go func(b *backend) {
			defer wg.Done()
			if err := h.probe(b); err != nil {
				h.noteFailure(b, err)
			} else {
				h.noteSuccess(b)
			}
		}(b)
	}
	wg.Wait()
}

// probe GETs the backend's /healthz (any transport error or non-200 is
// a failure), or TCP-dials the GFP1 address when no admin plane was
// configured.
func (h *health) probe(b *backend) error {
	if b.spec.Admin == "" {
		nc, err := net.DialTimeout("tcp", b.spec.Addr, h.timeout)
		if err != nil {
			return err
		}
		return nc.Close()
	}
	resp, err := h.client.Get("http://" + b.spec.Admin + "/healthz")
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(io.LimitReader(resp.Body, 256))
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("healthz %d: %s", resp.StatusCode, body)
	}
	return nil
}

// noteFailure records one failed probe or transport-level forward
// failure, ejecting the backend once the consecutive-failure threshold
// is reached.
func (h *health) noteFailure(b *backend, err error) {
	b.hmu.Lock()
	b.consecFails++
	b.consecOKs = 0
	b.lastHealthErr = err.Error()
	eject := b.consecFails >= h.failAfter && b.healthy()
	if eject {
		b.state.Store(stateEjected)
	}
	b.hmu.Unlock()
	if eject {
		b.ejections.Add(1)
		b.closeClient()
		h.p.ctr.ejections.Add(1)
		h.p.logf("cluster: ejected backend %s after %d consecutive failures: %v",
			b.spec.Addr, h.failAfter, err)
	}
}

// noteSuccess records one successful probe (or, for passive-only
// backends, one successful forward), readmitting an ejected backend
// once the consecutive-success threshold is reached.
func (h *health) noteSuccess(b *backend) {
	b.hmu.Lock()
	b.consecOKs++
	b.consecFails = 0
	b.lastHealthErr = ""
	readmit := !b.healthy() && b.consecOKs >= h.readmitAfter
	if readmit {
		b.state.Store(stateHealthy)
	}
	b.hmu.Unlock()
	if readmit {
		b.readmits.Add(1)
		h.p.ctr.readmits.Add(1)
		h.p.logf("cluster: readmitted backend %s", b.spec.Addr)
	}
}

// lastErr returns the most recent health error, for admin surfaces.
func (b *backend) lastErr() string {
	b.hmu.Lock()
	defer b.hmu.Unlock()
	return b.lastHealthErr
}
