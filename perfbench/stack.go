package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"os"
	"strings"
	"time"

	"repro/internal/cluster"
	"repro/internal/obs"
	"repro/internal/server"
)

// Fixed loopback ports for the two backends and the proxy. The proxy's
// hash ring places each backend by its address string, so fixed
// addresses give the same ring, and the same split of requests between
// the backends, in every run. If a port is taken the run fails.
var stackAddrs = [3]string{"127.0.0.1:24655", "127.0.0.1:24656", "127.0.0.1:24660"}

// backendConfig is gfserved's configuration at its default flags, with
// one deployment setting changed: -batch 16.
func backendConfig(logf func(string, ...any)) server.Config {
	return server.Config{
		N: 255, K: 239, Depth: 1,
		Batch:        16,
		Window:       32,
		MaxPayload:   server.DefaultMaxPayload,
		ReadTimeout:  2 * time.Minute,
		WriteTimeout: 30 * time.Second,
		TraceEvery:   64,
		TraceSlowest: 16,
		Logf:         logf,
	}
}

// proxyConfig is gfproxy's configuration at its default flags, with one
// deployment setting changed: -route request.
func proxyConfig(backends []cluster.BackendSpec, logf func(string, ...any)) cluster.Config {
	return cluster.Config{
		Backends:       backends,
		Retries:        2,
		PoolSize:       4,
		DialWait:       time.Second,
		ForwardTimeout: 30 * time.Second,
		Window:         32,
		MaxPayload:     server.DefaultMaxPayload,
		RouteByRequest: true,
		HealthInterval: time.Second,
		HealthTimeout:  time.Second,
		FailAfter:      2,
		ReadmitAfter:   2,
		ReadTimeout:    2 * time.Minute,
		WriteTimeout:   30 * time.Second,
		Logf:           logf,
	}
}

func logf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "perfbench: "+format+"\n", args...)
}

// stack is two backends behind one proxy, in this process, on loopback
// TCP.
type stack struct {
	servers []*server.Server
	regs    []*obs.Registry
	proxy   *cluster.Proxy
	preg    *obs.Registry
	addrs   []string
	serveCh chan error
	serving int // Serve goroutines started
}

func listen(addr string) (net.Listener, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("%w (the stack needs its fixed ports)", err)
	}
	return ln, nil
}

// startStack builds and starts the stack: the backends first, so the
// proxy's first health probe finds them listening.
func startStack() (*stack, error) {
	st := &stack{serveCh: make(chan error, 3)}
	var specs []cluster.BackendSpec
	for i := 0; i < 2; i++ {
		s, err := server.New(backendConfig(logf))
		if err != nil {
			st.shutdown()
			return nil, err
		}
		reg := obs.NewRegistry()
		s.RegisterMetrics(reg)
		ln, err := listen(stackAddrs[i])
		if err != nil {
			st.shutdown()
			return nil, err
		}
		st.servers = append(st.servers, s)
		st.regs = append(st.regs, reg)
		st.addrs = append(st.addrs, ln.Addr().String())
		st.serve(func() error { return s.Serve(ln) })
		specs = append(specs, cluster.BackendSpec{Addr: ln.Addr().String()})
	}
	p, err := cluster.New(proxyConfig(specs, logf))
	if err != nil {
		st.shutdown()
		return nil, err
	}
	st.proxy = p
	st.preg = obs.NewRegistry()
	p.RegisterMetrics(st.preg)
	ln, err := listen(stackAddrs[2])
	if err != nil {
		st.shutdown()
		return nil, err
	}
	st.addrs = append(st.addrs, ln.Addr().String())
	st.serve(func() error { return p.Serve(ln) })
	return st, nil
}

func (st *stack) serve(fn func() error) {
	st.serving++
	go func() { st.serveCh <- fn() }()
}

func (st *stack) proxyAddr() string { return st.addrs[len(st.addrs)-1] }

// shutdown drains the proxy, then the backends, and waits for every
// Serve to return.
func (st *stack) shutdown() error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	var errs []error
	if st.proxy != nil {
		errs = append(errs, st.proxy.Shutdown(ctx))
	}
	for _, s := range st.servers {
		errs = append(errs, s.Shutdown(ctx))
	}
	for ; st.serving > 0; st.serving-- {
		select {
		case err := <-st.serveCh:
			errs = append(errs, err)
		case <-ctx.Done():
			return errors.Join(append(errs, ctx.Err())...)
		}
	}
	return errors.Join(errs...)
}

// ledger checks the request ledgers once the stack is quiet: every
// backend and the proxy satisfy Requests == Responses + Rejects +
// Dropped with nothing rejected, dropped or retried, the backends
// together served exactly the proxy's requests, and the proxy framed
// exactly the requests the client sent. Counters settle just after the
// last reply is read, so the check is retried for a moment.
func (st *stack) ledger(sent int64) error {
	var err error
	for deadline := time.Now().Add(2 * time.Second); ; time.Sleep(10 * time.Millisecond) {
		if err = st.ledgerOnce(sent); err == nil || time.Now().After(deadline) {
			return err
		}
	}
}

func (st *stack) ledgerOnce(sent int64) error {
	var bad []string
	p := st.proxy.Statsz().Proxy
	if p.Requests != p.Responses+p.Rejects+p.Dropped || p.Rejects+p.Dropped+p.Retries+p.ProtoErrors != 0 {
		bad = append(bad, fmt.Sprintf("proxy requests %d responses %d rejects %d dropped %d retries %d proto-errors %d",
			p.Requests, p.Responses, p.Rejects, p.Dropped, p.Retries, p.ProtoErrors))
	}
	if p.Requests != sent {
		bad = append(bad, fmt.Sprintf("proxy framed %d requests, client sent %d", p.Requests, sent))
	}
	var served int64
	for i, s := range st.servers {
		c := s.Snapshot().Server
		served += c.Requests
		if c.Requests != c.Responses+c.Rejects+c.Dropped || c.Rejects+c.Dropped+c.ProtoErrors != 0 {
			bad = append(bad, fmt.Sprintf("backend %d requests %d responses %d rejects %d dropped %d proto-errors %d",
				i, c.Requests, c.Responses, c.Rejects, c.Dropped, c.ProtoErrors))
		}
	}
	if served != p.Requests {
		bad = append(bad, fmt.Sprintf("backends served %d requests, proxy forwarded %d", served, p.Requests))
	}
	if len(bad) > 0 {
		return fmt.Errorf("ledger: %s", strings.Join(bad, "; "))
	}
	return nil
}
