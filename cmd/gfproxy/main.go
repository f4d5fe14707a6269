// Command gfproxy is the GFP1 routing front door for a fleet of
// gfserved backends (see docs/CLUSTER.md): it terminates client
// connections, consistent-hashes each request onto one of N backends,
// health-checks the fleet (ejecting dead backends and readmitting
// recovered ones), transparently retries idempotent ops when a backend
// is lost mid-flight, applies per-tenant admission control, and
// aggregates the fleet's metrics on its own admin plane so the whole
// cluster scrapes like one process.
//
// Backends are named addr or addr@adminAddr; with an admin address the
// health checker probes the backend's /healthz (which a gfserved only
// answers 200 after its datapath self-test passed) and the fleet
// aggregator scrapes its /statsz; without one, health falls back to a
// TCP dial of the GFP1 port. Requests to one backend are pipelined on
// one shared GFP1 connection, dialed on first use and redialed after it
// fails; a forward unanswered after -forward-timeout is abandoned
// without closing it.
//
// Usage:
//
//	gfproxy -backends HOST:A[@HOST:ADMIN],HOST:B,... [-addr :4660]
//	        [-admin ADDR] [-replicas 64] [-retries 2] [-window 32]
//	        [-max-payload 1048576] [-tenant-inflight 0]
//	        [-route conn|request] [-health-interval 1s]
//	        [-health-timeout 1s] [-fail-after 2] [-readmit-after 2]
//	        [-dial-wait 1s] [-forward-timeout 30s] [-read-timeout 2m]
//	        [-write-timeout 30s] [-grace 30s] [-quiet]
//	        [-trace-every 0] [-trace-ring 256] [-log-format text|json]
//	        [-slo SPEC] [-slo-window 1m] [-wide-every N]
//
// Examples:
//
//	gfproxy -backends :4650,:4651,:4652                  # 3-way fleet
//	gfproxy -backends :4650@:9090,:4651@:9091 -admin :9095
//	gfproxy -backends :4650 -route request               # spread one conn
//	gfproxy -backends :4650 -tenant-inflight 64          # per-IP budget
//	gfproxy -backends :4650 -trace-every 100             # self-sample traces
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
	"strings"
	"syscall"
	"time"

	"repro/internal/cluster"
	"repro/internal/obs"
	"repro/internal/server"
)

type cliConfig struct {
	addr           string
	backends       string
	adminAddr      string
	replicas       int
	retries        int
	window         int
	maxPayload     int
	tenantInflight int
	route          string
	healthInterval time.Duration
	healthTimeout  time.Duration
	failAfter      int
	readmitAfter   int
	dialWait       time.Duration
	forwardTimeout time.Duration
	readTimeout    time.Duration
	writeTimeout   time.Duration
	grace          time.Duration
	quiet          bool
	traceEvery     int
	traceRing      int
	logFormat      string
	slo            string
	sloWindow      time.Duration
	wideEvery      int
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

func main() {
	var cfg cliConfig
	flag.StringVar(&cfg.addr, "addr", ":4660", "TCP listen address")
	flag.StringVar(&cfg.backends, "backends", "", "comma-separated backend specs, addr or addr@adminAddr (required)")
	flag.StringVar(&cfg.adminAddr, "admin", "", "admin HTTP listen address for /metrics, /healthz, /statsz and /debug/pprof (empty = off)")
	flag.IntVar(&cfg.replicas, "replicas", 0, "virtual nodes per backend on the hash ring (0 = 64)")
	flag.IntVar(&cfg.retries, "retries", 2, "extra forward attempts per request (idempotent ops only)")
	flag.IntVar(&cfg.window, "window", 32, "max in-flight requests per client connection")
	flag.IntVar(&cfg.maxPayload, "max-payload", server.DefaultMaxPayload, "max request payload bytes")
	flag.IntVar(&cfg.tenantInflight, "tenant-inflight", 0, "max in-flight requests per client IP (0 = unlimited)")
	flag.StringVar(&cfg.route, "route", "conn", "routing key granularity: conn (one backend per connection) or request")
	flag.DurationVar(&cfg.healthInterval, "health-interval", time.Second, "active health-probe period")
	flag.DurationVar(&cfg.healthTimeout, "health-timeout", time.Second, "per-probe time limit")
	flag.IntVar(&cfg.failAfter, "fail-after", 2, "consecutive failures that eject a backend")
	flag.IntVar(&cfg.readmitAfter, "readmit-after", 2, "consecutive successful probes that readmit a backend")
	flag.DurationVar(&cfg.dialWait, "dial-wait", time.Second, "backend connection-establishment budget")
	flag.DurationVar(&cfg.forwardTimeout, "forward-timeout", 30*time.Second, "per-attempt forward time limit")
	flag.DurationVar(&cfg.readTimeout, "read-timeout", 2*time.Minute, "per-connection idle limit (0 = none)")
	flag.DurationVar(&cfg.writeTimeout, "write-timeout", 30*time.Second, "per-response write limit (0 = none)")
	flag.DurationVar(&cfg.grace, "grace", 30*time.Second, "shutdown drain budget before connections are cut")
	flag.BoolVar(&cfg.quiet, "quiet", false, "suppress the final stats snapshot")
	flag.IntVar(&cfg.traceEvery, "trace-every", 0, "self-sample every Nth untraced request as a new root trace (0 = off; client-traced requests are always honored)")
	flag.IntVar(&cfg.traceRing, "trace-ring", 0, "distributed-trace spans retained for /tracez (0 = 256)")
	flag.StringVar(&cfg.logFormat, "log-format", "text", "stderr log format: text or json")
	flag.StringVar(&cfg.slo, "slo", "", "latency objectives, op=threshold@percent comma-separated (e.g. 'rs-encode=5ms@99.9,default=10ms@99'; empty = off)")
	flag.DurationVar(&cfg.sloWindow, "slo-window", time.Minute, "rolling window for the SLO error-budget burn rate")
	flag.IntVar(&cfg.wideEvery, "wide-every", 0, "emit a structured wide event for every traced request plus one in N untraced completions (0 = wide events off)")
	flag.Parse()

	if err := run(cfg, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "gfproxy:", err)
		os.Exit(1)
	}
}

func run(cfg cliConfig, out io.Writer) error {
	if cfg.backends == "" {
		return fmt.Errorf("no -backends given (addr or addr@adminAddr, comma-separated)")
	}
	var specs []cluster.BackendSpec
	for _, raw := range strings.Split(cfg.backends, ",") {
		spec, err := cluster.ParseBackendSpec(raw)
		if err != nil {
			return err
		}
		specs = append(specs, spec)
	}
	var routeByRequest bool
	switch cfg.route {
	case "conn":
	case "request":
		routeByRequest = true
	default:
		return fmt.Errorf("unknown -route %q (want conn or request)", cfg.route)
	}

	logger, err := newLogger(cfg.logFormat)
	if err != nil {
		return err
	}
	logger = logger.With(slog.String("proc", "gfproxy"))
	objectives, err := obs.ParseObjectives(cfg.slo)
	if err != nil {
		return err
	}
	var wideLog *slog.Logger
	if cfg.wideEvery > 0 {
		wideLog = logger
	}
	p, err := cluster.New(cluster.Config{
		Backends:       specs,
		Replicas:       cfg.replicas,
		Retries:        cfg.retries,
		DialWait:       cfg.dialWait,
		ForwardTimeout: cfg.forwardTimeout,
		Window:         cfg.window,
		MaxPayload:     cfg.maxPayload,
		TenantInflight: cfg.tenantInflight,
		RouteByRequest: routeByRequest,
		HealthInterval: cfg.healthInterval,
		HealthTimeout:  cfg.healthTimeout,
		FailAfter:      cfg.failAfter,
		ReadmitAfter:   cfg.readmitAfter,
		ReadTimeout:    cfg.readTimeout,
		WriteTimeout:   cfg.writeTimeout,
		TraceEvery:     cfg.traceEvery,
		TraceRing:      cfg.traceRing,
		SLO:            obs.NewSLO(objectives, cfg.sloWindow),
		WideLog:        wideLog,
		WideEvery:      cfg.wideEvery,
		Logf: func(format string, args ...any) {
			logger.Warn(fmt.Sprintf(format, args...))
		},
	})
	if err != nil {
		return err
	}

	reg := obs.NewRegistry()
	p.RegisterMetrics(reg)

	if cfg.adminAddr != "" {
		aln, err := net.Listen("tcp", cfg.adminAddr)
		if err != nil {
			return fmt.Errorf("admin listen: %w", err)
		}
		admin := &http.Server{Handler: p.AdminHandler(reg)}
		go admin.Serve(aln)
		defer admin.Close()
		fmt.Fprintf(out, "gfproxy: admin on http://%s — /metrics /healthz /statsz /tracez /debug/pprof\n", aln.Addr())
	}

	stop := make(chan os.Signal, 1)
	signal.Notify(stop, os.Interrupt, syscall.SIGTERM)

	serveErr := make(chan error, 1)
	go func() {
		serveErr <- p.ListenAndServe(cfg.addr)
	}()

	// Wait for the listener so the printed address is real (matters for
	// -addr :0); a bind error is the only thing that can race us here.
	for p.Addr() == nil {
		select {
		case err := <-serveErr:
			return err
		default:
			time.Sleep(time.Millisecond)
		}
	}
	fmt.Fprintf(out, "gfproxy: listening on %s — %d backends, %s routing, %d retries, window %d\n",
		p.Addr(), len(specs), cfg.route, cfg.retries, cfg.window)

	select {
	case sig := <-stop:
		fmt.Fprintf(out, "gfproxy: %v — draining (budget %v)\n", sig, cfg.grace)
		ctx, cancel := context.WithTimeout(context.Background(), cfg.grace)
		defer cancel()
		if err := p.Shutdown(ctx); err != nil {
			return fmt.Errorf("shutdown: %w", err)
		}
		<-serveErr // Serve returns nil once the listener closes
	case err := <-serveErr:
		if err != nil {
			return err
		}
	}

	if !cfg.quiet {
		enc := json.NewEncoder(out)
		enc.SetIndent("", "  ")
		if err := enc.Encode(p.Statsz()); err != nil {
			return err
		}
	}
	return nil
}
