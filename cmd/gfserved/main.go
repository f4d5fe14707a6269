// Command gfserved serves the GF codec pipeline over TCP: a
// length-prefixed binary protocol (see docs/SERVER.md) carrying
// rs-encode / rs-decode / aes-gcm-seal / aes-gcm-open / stats requests
// plus the binary-field ECC ops (ecdh-derive / ecdsa-sign /
// ecdsa-verify / secure-session, on -curve) from many concurrent
// connections, multiplexed into one shared internal/pipeline run and
// answered in completion order, matched by request id.
//
// The codec knobs mirror cmd/gfpipe: one RS(n,k) code over GF(2^8),
// interleaved to -depth, with per-stage worker pools sized by -workers
// and -queue. SIGINT/SIGTERM triggers a graceful shutdown — the
// listener closes, every in-flight request drains to its connection,
// and a final stats snapshot is printed.
//
// Usage:
//
//	gfserved [-addr :4650] [-n 255] [-k 239] [-depth 1] [-workers 0]
//	         [-queue 0] [-window 32] [-max-payload 1048576]
//	         [-key STRING] [-curve K-233] [-ecc-key STRING]
//	         [-read-timeout 2m] [-write-timeout 30s]
//	         [-grace 30s] [-quiet] [-admin ADDR] [-progress DUR]
//	         [-trace-ring 256]
//	         [-log-format text|json] [-slo SPEC] [-slo-window 1m]
//	         [-wide-every N]
//
// Examples:
//
//	gfserved                        # RS(255,239) on :4650
//	gfserved -n 255 -k 223 -depth 4 # deeper code, interleaved frames
//	gfserved -addr 127.0.0.1:0      # ephemeral port (printed on start)
//	gfserved -admin :9090           # /metrics, /healthz, /statsz, /tracez, pprof
//	gfserved -progress 5s           # one summary line every 5s
//	gfserved -log-format json -wide-every 100   # wide events, JSON logs
//	gfserved -slo 'ecdsa-sign=5ms@99.9,default=2ms@99'  # error budgets
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"os"
	"os/signal"
	"sync"
	"syscall"
	"time"

	"repro/internal/obs"
	"repro/internal/server"
)

type cliConfig struct {
	addr         string
	n, k         int
	depth        int
	workers      int
	queue        int
	batch        int
	window       int
	maxPayload   int
	key          string
	curve        string
	eccKey       string
	readTimeout  time.Duration
	writeTimeout time.Duration
	grace        time.Duration
	quiet        bool
	adminAddr    string
	progress     time.Duration
	traceRing    int
	logFormat    string
	slo          string
	sloWindow    time.Duration
	wideEvery    int
}

// newLogger builds the process logger: structured slog on stderr, text
// (the human-friendly default) or JSON (one machine-parseable object
// per line — the shape log pipelines ingest wide events in).
func newLogger(format string) (*slog.Logger, error) {
	switch format {
	case "", "text":
		return slog.New(slog.NewTextHandler(os.Stderr, nil)), nil
	case "json":
		return slog.New(slog.NewJSONHandler(os.Stderr, nil)), nil
	default:
		return nil, fmt.Errorf("unknown -log-format %q (want text or json)", format)
	}
}

// syncWriter serializes writes so the progress goroutine and the main
// goroutine can share one output stream without interleaving lines.
type syncWriter struct {
	mu sync.Mutex
	w  io.Writer
}

func (sw *syncWriter) Write(p []byte) (int, error) {
	sw.mu.Lock()
	defer sw.mu.Unlock()
	return sw.w.Write(p)
}

func main() {
	var cfg cliConfig
	flag.StringVar(&cfg.addr, "addr", ":4650", "TCP listen address")
	flag.IntVar(&cfg.n, "n", 255, "RS codeword length (symbols, over GF(2^8))")
	flag.IntVar(&cfg.k, "k", 239, "RS message length (symbols)")
	flag.IntVar(&cfg.depth, "depth", 1, "interleaving depth (codewords per frame)")
	flag.IntVar(&cfg.batch, "batch", 1, "max interleaver frames per RS request (payload = multiple of the frame unit)")
	flag.IntVar(&cfg.workers, "workers", 0, "pipeline workers per stage (0 = GOMAXPROCS)")
	flag.IntVar(&cfg.queue, "queue", 0, "pipeline queue depth (0 = 2*workers)")
	flag.IntVar(&cfg.window, "window", 32, "max in-flight requests per connection")
	flag.IntVar(&cfg.maxPayload, "max-payload", server.DefaultMaxPayload, "max request payload bytes")
	flag.StringVar(&cfg.key, "key", "", "AES key for seal/open (16/24/32 bytes; empty = demo key)")
	flag.StringVar(&cfg.curve, "curve", "",
		"binary curve for the ECC ops: K-163, B-163, K-233, B-233, K-283 (empty = "+server.DefaultCurve+"; off = disabled)")
	flag.StringVar(&cfg.eccKey, "ecc-key", "",
		"seed for the deterministic ECC signing scalar (empty = derive from -key; share it across a fleet for identical signatures)")
	flag.DurationVar(&cfg.readTimeout, "read-timeout", 2*time.Minute, "per-connection idle limit (0 = none)")
	flag.DurationVar(&cfg.writeTimeout, "write-timeout", 30*time.Second, "per-response write limit (0 = none)")
	flag.DurationVar(&cfg.grace, "grace", 30*time.Second, "shutdown drain budget before connections are cut")
	flag.BoolVar(&cfg.quiet, "quiet", false, "suppress the final stats snapshot")
	flag.StringVar(&cfg.adminAddr, "admin", "", "admin HTTP listen address for /metrics, /healthz, /statsz and /debug/pprof (empty = off)")
	flag.DurationVar(&cfg.progress, "progress", 0, "print a one-line stats summary at this interval (0 = off)")
	flag.IntVar(&cfg.traceRing, "trace-ring", 0, "distributed-trace spans retained for /tracez (0 = 256)")
	flag.StringVar(&cfg.logFormat, "log-format", "text", "stderr log format: text or json")
	flag.StringVar(&cfg.slo, "slo", "", "latency objectives, op=threshold@percent comma-separated (e.g. 'ecdsa-sign=5ms@99.9,default=2ms@99'; empty = off)")
	flag.DurationVar(&cfg.sloWindow, "slo-window", time.Minute, "rolling window for the SLO error-budget burn rate")
	flag.IntVar(&cfg.wideEvery, "wide-every", 0, "emit a structured wide event for every traced request plus one in N untraced completions (0 = wide events off)")
	flag.Parse()

	if err := run(cfg, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "gfserved:", err)
		os.Exit(1)
	}
}

func run(cfg cliConfig, out io.Writer) error {
	w := &syncWriter{w: out}
	logger, err := newLogger(cfg.logFormat)
	if err != nil {
		return err
	}
	logger = logger.With(slog.String("proc", "gfserved"))
	objectives, err := obs.ParseObjectives(cfg.slo)
	if err != nil {
		return err
	}
	var wideLog *slog.Logger
	if cfg.wideEvery > 0 {
		wideLog = logger
	}
	s, err := server.New(server.Config{
		N: cfg.n, K: cfg.k, Depth: cfg.depth, Batch: cfg.batch,
		Workers: cfg.workers, Queue: cfg.queue,
		Key:         []byte(cfg.key),
		Curve:       cfg.curve,
		ECCKey:      []byte(cfg.eccKey),
		MaxPayload:  cfg.maxPayload,
		Window:      cfg.window,
		ReadTimeout: cfg.readTimeout, WriteTimeout: cfg.writeTimeout,
		TraceRing: cfg.traceRing,
		SLO:       obs.NewSLO(objectives, cfg.sloWindow),
		WideLog:   wideLog,
		WideEvery: cfg.wideEvery,
		Logf: func(format string, args ...any) {
			logger.Warn(fmt.Sprintf(format, args...))
		},
	})
	if err != nil {
		return err
	}

	reg := obs.NewRegistry()
	s.RegisterMetrics(reg)

	if cfg.adminAddr != "" {
		aln, err := net.Listen("tcp", cfg.adminAddr)
		if err != nil {
			return fmt.Errorf("admin listen: %w", err)
		}
		admin := &http.Server{Handler: s.AdminHandler(reg)}
		go admin.Serve(aln)
		defer admin.Close()
		fmt.Fprintf(w, "gfserved: admin on http://%s — /metrics /healthz /statsz /tracez /debug/pprof\n", aln.Addr())
	}

	if cfg.progress > 0 {
		progressDone := make(chan struct{})
		progressStop := make(chan struct{})
		go func() {
			defer close(progressDone)
			progressLoop(w, reg, cfg.progress, progressStop)
		}()
		defer func() { close(progressStop); <-progressDone }()
	}

	stop := make(chan os.Signal, 1)
	signal.Notify(stop, os.Interrupt, syscall.SIGTERM)

	serveErr := make(chan error, 1)
	go func() {
		serveErr <- s.ListenAndServe(cfg.addr)
	}()

	// Wait for the listener so the printed address is real (matters for
	// -addr :0); New has already built the pipeline, so a bind error is
	// the only thing that can race us here.
	for s.Addr() == nil {
		select {
		case err := <-serveErr:
			return err
		default:
			time.Sleep(time.Millisecond)
		}
	}
	snap := s.Snapshot()
	fmt.Fprintf(w, "gfserved: listening on %s — RS(%d,%d) depth %d, %d workers, window %d, ghash=%s, aes=%s\n",
		s.Addr(), snap.Config.N, snap.Config.K, snap.Config.Depth,
		snap.Config.Workers, snap.Config.Window, snap.Config.GHASH, snap.Config.AES)
	if e := snap.Config.ECC; e != nil {
		fmt.Fprintf(w, "gfserved: ecc on %s (mul=%s) — pub %s\n", e.Curve, e.MulStrategy, e.PublicKey)
	}

	select {
	case sig := <-stop:
		fmt.Fprintf(w, "gfserved: %v — draining (budget %v)\n", sig, cfg.grace)
		ctx, cancel := context.WithTimeout(context.Background(), cfg.grace)
		defer cancel()
		if err := s.Shutdown(ctx); err != nil {
			return fmt.Errorf("shutdown: %w", err)
		}
		<-serveErr // Serve returns nil once the listener closes
	case err := <-serveErr:
		if err != nil {
			return err
		}
	}

	if !cfg.quiet {
		final := s.Snapshot()
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		if err := enc.Encode(final); err != nil {
			return err
		}
	}
	return nil
}

// progressLoop prints one summary line per interval out of the metrics
// registry: the request ledger, live connections and the pipeline p95
// latency.
func progressLoop(w io.Writer, reg *obs.Registry, interval time.Duration, stop <-chan struct{}) {
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-stop:
			return
		case <-t.C:
		}
		req, _ := reg.Value("gfp_server_requests_total")
		resp, _ := reg.Value("gfp_server_responses_total")
		rej, _ := reg.Value("gfp_server_rejects_total")
		drop, _ := reg.Value("gfp_server_dropped_total")
		conns, _ := reg.Value("gfp_server_connections_active")
		line := fmt.Sprintf("gfserved: req=%.0f resp=%.0f rej=%.0f drop=%.0f conns=%.0f",
			req, resp, rej, drop, conns)
		if h, ok := reg.HistValue("gfp_pipeline_latency_seconds"); ok && h.Count > 0 {
			line += fmt.Sprintf(" p95=%s", time.Duration(h.Quantile(0.95)))
		}
		fmt.Fprintln(w, line)
	}
}
