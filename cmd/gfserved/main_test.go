package main

import (
	"bytes"
	"io"
	"net/http"
	"regexp"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"repro/internal/server"
)

// lockedBuf lets the test read output while run's goroutines write it.
type lockedBuf struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *lockedBuf) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *lockedBuf) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// waitMatch polls the buffer until re's first capture group appears.
func waitMatch(t *testing.T, out *lockedBuf, re *regexp.Regexp) string {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if m := re.FindStringSubmatch(out.String()); m != nil {
			return m[1]
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("output never matched %v:\n%s", re, out.String())
	return ""
}

// TestServeAdminProgressAndDrain runs the whole daemon in-process:
// ephemeral data and admin listeners, progress lines on — drives
// traffic, scrapes the admin endpoints (every frame's queue wait is
// measured), then SIGINTs the process and checks the drain path and
// final snapshot.
func TestServeAdminProgressAndDrain(t *testing.T) {
	out := &lockedBuf{}
	cfg := cliConfig{
		addr: "127.0.0.1:0", n: 255, k: 239, depth: 1,
		window: 8, maxPayload: server.DefaultMaxPayload,
		readTimeout: time.Minute, writeTimeout: 30 * time.Second,
		grace:     10 * time.Second,
		adminAddr: "127.0.0.1:0", progress: 20 * time.Millisecond,
	}
	done := make(chan error, 1)
	go func() { done <- run(cfg, out) }()

	addr := waitMatch(t, out, regexp.MustCompile(`listening on ([0-9.:]+)`))
	adminURL := waitMatch(t, out, regexp.MustCompile(`admin on (http://[0-9.:]+)`))

	c, err := server.Dial(addr, 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		if _, err := c.RSEncode(make([]byte, 239)); err != nil {
			t.Fatal(err)
		}
	}
	c.Close()

	get := func(path string) (int, string) {
		t.Helper()
		resp, err := http.Get(adminURL + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, string(body)
	}
	if code, body := get("/healthz"); code != http.StatusOK || !strings.HasPrefix(body, "ok") {
		t.Errorf("/healthz = %d %q", code, body)
	}
	if code, body := get("/metrics"); code != http.StatusOK ||
		!strings.Contains(body, "gfp_server_requests_total 8") ||
		!strings.Contains(body, `gfp_pipeline_stage_queue_wait_seconds_count{stage="codec-dispatch"} 8`) ||
		!strings.Contains(body, `gfp_pipeline_stage_frames_total{stage="codec-dispatch"} 8`) {
		t.Errorf("/metrics = %d, missing expected series:\n%s", code, body)
	}
	if code, body := get("/statsz"); code != http.StatusOK || !strings.Contains(body, `"metrics"`) {
		t.Errorf("/statsz = %d %q", code, body)
	}

	// A progress line must appear on its own cadence.
	waitMatch(t, out, regexp.MustCompile(`(req=8)`))

	if err := syscall.Kill(syscall.Getpid(), syscall.SIGINT); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("run: %v\n%s", err, out.String())
		}
	case <-time.After(10 * time.Second):
		t.Fatalf("run did not drain after SIGINT:\n%s", out.String())
	}
	final := out.String()
	if !strings.Contains(final, "draining") || !strings.Contains(final, `"requests": 8`) {
		t.Errorf("final output missing drain line or snapshot:\n%s", final)
	}
}
