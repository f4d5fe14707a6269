package server

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/obs"
)

// TestLedgerConsistencyUnderShutdown hammers the server with many
// concurrent clients while a poller takes snapshots the whole time —
// including through a mid-load Shutdown. Every live snapshot must
// satisfy the ledger inequality Requests >= Responses+Rejects+Dropped
// (a violation means a torn read or double count), and after Shutdown
// returns the ledger must balance exactly.
func TestLedgerConsistencyUnderShutdown(t *testing.T) {
	const conns = 6
	s, addr := startServer(t, Config{N: 255, K: 239, Depth: 1, Window: 8, Workers: 2})

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for ci := 0; ci < conns; ci++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c, err := Dial(addr, time.Second)
			if err != nil {
				return // server may already be draining
			}
			defer c.Close()
			msg := make([]byte, 239)
			for {
				select {
				case <-stop:
					return
				default:
				}
				if _, err := c.RSEncode(msg); err != nil {
					return // reject or dead conn ends this client
				}
			}
		}()
	}

	// Poller: snapshots race the clients and the shutdown below.
	var violations atomic.Int64
	pollDone := make(chan struct{})
	go func() {
		defer close(pollDone)
		for {
			select {
			case <-stop:
				return
			default:
			}
			c := s.Snapshot().Server
			if c.Requests < c.Responses+c.Rejects+c.Dropped {
				violations.Add(1)
			}
		}
	}()

	// Let real traffic build up before pulling the plug.
	for deadline := time.Now().Add(5 * time.Second); ; {
		if s.Snapshot().Server.Requests >= conns {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("load never ramped")
		}
		time.Sleep(time.Millisecond)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	close(stop)
	wg.Wait()
	<-pollDone

	if n := violations.Load(); n != 0 {
		t.Errorf("%d snapshots violated Requests >= Responses+Rejects+Dropped", n)
	}
	c := s.Snapshot().Server
	if got := c.Responses + c.Rejects + c.Dropped; got != c.Requests {
		t.Errorf("ledger unbalanced after shutdown: requests %d != responses %d + rejects %d + dropped %d",
			c.Requests, c.Responses, c.Rejects, c.Dropped)
	}
}

// TestAdminEndpoints exercises the full admin surface against a live
// server: /healthz flips 200 -> 503 across Shutdown, /metrics serves
// valid exposition covering the server ledger, pipeline stages and
// kernel tiers, and /statsz is a JSON superset of the stats op.
func TestAdminEndpoints(t *testing.T) {
	s, addr := startServer(t, Config{
		N: 255, K: 239, Depth: 1, Window: 4, Workers: 2,
		TraceEvery: 1, TraceSlowest: 4,
	})
	reg := obs.NewRegistry()
	s.RegisterMetrics(reg)
	admin := httptest.NewServer(s.AdminHandler(reg))
	defer admin.Close()

	get := func(path string) (int, string, string) {
		t.Helper()
		resp, err := http.Get(admin.URL + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatalf("GET %s body: %v", path, err)
		}
		return resp.StatusCode, string(body), resp.Header.Get("Content-Type")
	}

	if code, body, _ := get("/healthz"); code != http.StatusOK || !strings.HasPrefix(body, "ok") {
		t.Errorf("/healthz = %d %q, want 200 ok", code, body)
	}

	c := dialT(t, addr)
	for i := 0; i < 8; i++ {
		if _, err := c.RSEncode(make([]byte, 239)); err != nil {
			t.Fatal(err)
		}
	}
	// The writer goroutine counts a reply only after flushing it, so the
	// client can hold its 8th reply before the ledger shows it: wait, for
	// at most 5 s, until the counters asserted below have settled.
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(time.Millisecond) {
		if led := s.Snapshot().Server; led.Requests == 8 && led.Responses == 8 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("ledger never settled at 8 requests/responses: %+v", s.Snapshot().Server)
		}
	}

	code, body, ct := get("/metrics")
	if code != http.StatusOK {
		t.Fatalf("/metrics = %d", code)
	}
	if ct != obs.ContentType {
		t.Errorf("/metrics content type = %q, want %q", ct, obs.ContentType)
	}
	for _, want := range []string{
		"gfp_server_requests_total 8",
		"gfp_server_responses_total 8",
		`gfp_server_info{code="RS(255,239)",depth="1"} 1`,
		`gfp_pipeline_stage_frames_total{stage="codec-dispatch"} 8`,
		`gfp_model_ops_total{class="gf_op",stage="codec-dispatch"}`,
		`gfp_gf_kernel_calls_total{tier="table"}`,
		`gfp_pipeline_stage_queue_wait_seconds_count{stage="codec-dispatch"} 8`,
		"gfp_pipeline_traced_frames_total 8",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}

	code, body, ct = get("/statsz")
	if code != http.StatusOK {
		t.Fatalf("/statsz = %d", code)
	}
	if ct != "application/json" {
		t.Errorf("/statsz content type = %q", ct)
	}
	var sz struct {
		Server  Counters          `json:"server"`
		Metrics []json.RawMessage `json:"metrics"`
		Traces  []json.RawMessage `json:"traces"`
	}
	if err := json.Unmarshal([]byte(body), &sz); err != nil {
		t.Fatalf("/statsz not JSON: %v", err)
	}
	if sz.Server.Requests != 8 || sz.Server.Responses != 8 {
		t.Errorf("/statsz ledger = %+v, want 8 requests/responses", sz.Server)
	}
	if len(sz.Metrics) == 0 {
		t.Error("/statsz has no metrics array")
	}
	if len(sz.Traces) == 0 {
		t.Error("/statsz has no traces despite TraceEvery=1")
	}

	if code, _, _ := get("/debug/pprof/cmdline"); code != http.StatusOK {
		t.Errorf("/debug/pprof/cmdline = %d", code)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	if code, _, _ := get("/healthz"); code != http.StatusServiceUnavailable {
		t.Errorf("/healthz after shutdown = %d, want 503", code)
	}
}

// TestHealthyBeforeServe: a constructed-but-not-served server is not
// healthy yet.
func TestHealthyBeforeServe(t *testing.T) {
	s, err := New(Config{N: 255, K: 239, Depth: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), time.Second)
		defer cancel()
		s.Shutdown(ctx)
	}()
	if err := s.Healthy(); err == nil {
		t.Error("Healthy() = nil before Serve")
	}
}
