package main

import (
	"bytes"
	"context"
	"io"
	"net"
	"net/http"
	"regexp"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"repro/internal/obs"
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

// startBackend runs a real gfserved-shaped server with an admin plane
// for the proxy to route to and scrape.
func startBackend(t *testing.T) (gfp1Addr, adminAddr string) {
	t.Helper()
	s, err := server.New(server.Config{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	aln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	s.RegisterMetrics(reg)
	admin := &http.Server{Handler: s.AdminHandler(reg)}
	go s.Serve(ln)
	go admin.Serve(aln)
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		s.Shutdown(ctx)
		admin.Close()
	})
	return ln.Addr().String(), aln.Addr().String()
}

// TestProxyServeAdminAndDrain runs the whole daemon in-process against
// two live backends: routes traffic, scrapes the aggregated admin
// endpoints, then SIGINTs the process and checks the drain path and
// final snapshot.
func TestProxyServeAdminAndDrain(t *testing.T) {
	a1, adm1 := startBackend(t)
	a2, adm2 := startBackend(t)

	out := &lockedBuf{}
	cfg := cliConfig{
		addr:           "127.0.0.1:0",
		backends:       a1 + "@" + adm1 + "," + a2 + "@" + adm2,
		adminAddr:      "127.0.0.1:0",
		retries:        2,
		window:         8,
		maxPayload:     server.DefaultMaxPayload,
		route:          "request",
		healthInterval: 50 * time.Millisecond,
		healthTimeout:  time.Second,
		failAfter:      2,
		readmitAfter:   2,
		dialWait:       time.Second,
		forwardTimeout: 10 * time.Second,
		readTimeout:    time.Minute,
		writeTimeout:   30 * time.Second,
		grace:          10 * time.Second,
	}
	done := make(chan error, 1)
	go func() { done <- run(cfg, out) }()

	addr := waitMatch(t, out, regexp.MustCompile(`listening on ([0-9.:]+)`))
	adminURL := waitMatch(t, out, regexp.MustCompile(`admin on (http://[0-9.:]+)`))

	c, err := server.Dial(addr, 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 16; i++ {
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
		!strings.Contains(body, "gfp_proxy_requests_total 16") ||
		!strings.Contains(body, "gfp_server_requests_total 16") { // merged fleet family
		t.Errorf("/metrics = %d, missing expected series:\n%s", code, body)
	}
	if code, body := get("/statsz"); code != http.StatusOK ||
		!strings.Contains(body, `"scraped": 2`) {
		t.Errorf("/statsz = %d, missing fleet scrape:\n%s", code, body)
	}

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
	if !strings.Contains(final, "draining") || !strings.Contains(final, `"requests": 16`) {
		t.Errorf("final output missing drain line or snapshot:\n%s", final)
	}
}

// TestBadFlags covers the CLI validation paths.
func TestBadFlags(t *testing.T) {
	if err := run(cliConfig{}, io.Discard); err == nil ||
		!strings.Contains(err.Error(), "-backends") {
		t.Errorf("no backends: err = %v", err)
	}
	if err := run(cliConfig{backends: "a:1", route: "zigzag"}, io.Discard); err == nil ||
		!strings.Contains(err.Error(), "-route") {
		t.Errorf("bad route: err = %v", err)
	}
	if err := run(cliConfig{backends: "a:1,@bad", route: "conn"}, io.Discard); err == nil {
		t.Errorf("bad backend spec: err = %v", err)
	}
}
