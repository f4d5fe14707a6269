// Command perfbench is the end-to-end benchmark of the serving stack:
// two gfserved backends (server.New) behind one gfproxy (cluster.New),
// in this process on loopback TCP, driven over two client connections.
// A run sets up the stack, warms it, then measures a closed-loop
// capacity phase and an open-loop paced phase of one workload, checks
// every reply and the request ledgers, and prints one JSON result line.
// See README.md in this directory.
//
// Usage:
//
//	perfbench --workload uplink|handshake|mixed [--seed N] [--seconds S] [--trace 0|1]
package main

import (
	"bytes"
	"context"
	"encoding/hex"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/ecc"
	"repro/internal/server"
)

const (
	numConns      = 2   // client connections, one per CPU of the 2-CPU bench host
	window        = 2   // capacity phase: requests in flight per connection
	capacityShare = 0.1 // share of --seconds the capacity phase is sized for
	warmSeconds   = 0.5 // warm-up length at the prototype capacity
	setupProbes   = 7   // fresh processes whose set-up time is the median setup_s
	phaseLimit    = 90 * time.Second
	arrivalSalt   = 0x70616365 // separates the arrival stream from the input stream
	setupSalt     = 0x73657475 // separates the set-up inputs from the pool
)

type options struct {
	workload string
	seed     int64
	seconds  int
	trace    int
	probe    bool
}

func main() {
	var o options
	flag.StringVar(&o.workload, "workload", "", "workload: uplink, handshake or mixed")
	flag.Int64Var(&o.seed, "seed", 1, "seed of the inputs and the arrival schedule")
	flag.IntVar(&o.seconds, "seconds", 20, "measured seconds; sizes the phases' fixed request counts")
	flag.IntVar(&o.trace, "trace", 0, "1 = traced run: per-layer metrics, budget and trace file")
	flag.BoolVar(&o.probe, "setup-probe", false, "set up the stack once, print its set-up time and exit")
	flag.Parse()
	run := runBench
	if o.probe {
		run = runProbe
	}
	if err := run(o); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

// plan is a run's fixed request counts, whole pool cycles each. The
// paced count never falls below the workload's pacedMin, whatever
// --seconds asks for.
type plan struct{ warm, capacity, paced int }

func (w *workload) plan(seconds int) plan {
	p := w.poolSize()
	cycles := func(n float64) int { return max(1, int(math.Ceil(n/float64(p)))) * p }
	s := float64(seconds)
	return plan{
		warm:     cycles(w.capacity * warmSeconds),
		capacity: cycles(w.capacity * s * capacityShare),
		paced:    max(cycles(w.rate*s*(1-capacityShare)), w.pacedMin()),
	}
}

// setupInputs is one input per op of the workload: what set-up sends.
func setupInputs(w *workload, seed int64) (*gen, []*request, error) {
	g, err := newGen(seed ^ setupSalt)
	if err != nil {
		return nil, nil, err
	}
	var out []*request
	for _, s := range w.mix {
		rs, err := g.entries(s, 1)
		if err != nil {
			return nil, nil, err
		}
		out = append(out, rs...)
	}
	return g, out, nil
}

// phaseSeed derives the seed of a phase's request order; both paced
// phases of a traced run share one, so they send the same sequence.
func phaseSeed(seed int64, k int64) int64 { return seed*0x9e3779b1 + k }

// bench is a running stack and its client.
type bench struct {
	st    *stack
	cl    *client
	setup time.Duration
	ph    *phase // the set-up requests
}

// setUp builds the stack and sends one request of every op; the set-up
// time runs from the first constructor call to the last of those
// replies. Lazy GF/gfbig calibration and the proxy's pool dials fall in
// it.
func setUp(firsts []*request) (*bench, error) {
	t0 := time.Now()
	st, err := startStack()
	if err != nil {
		return nil, err
	}
	b := &bench{st: st}
	if b.cl, err = dialClient(st.proxyAddr(), numConns); err != nil {
		b.close()
		return nil, err
	}
	b.ph = newPhase("set-up", 1, firsts, len(firsts), 0, false)
	if err := b.cl.runClosed(b.ph, 1, phaseLimit); err != nil {
		b.close()
		return nil, fmt.Errorf("set-up: %w", err)
	}
	b.setup = time.Since(t0)
	return b, nil
}

// close stops the client and the stack; safe to call more than once.
func (b *bench) close() error {
	if b.cl != nil {
		b.cl.close()
		b.cl = nil
	}
	if b.st == nil {
		return nil
	}
	err := b.st.shutdown()
	b.st = nil
	return err
}

// phaseResult is a timed phase with the stack and process readings
// around it.
type phaseResult struct {
	ph            *phase
	before, after stackSnap
	rt0, rt1      runtimeSnap
	peakRSS       float64 // VmHWM in MB when the phase ended
}

// measure runs one timed phase after a GC, reading the stack before and
// after it. gather adds the full registry dumps of a traced run.
func (b *bench) measure(ph *phase, gather bool, run func(*phase) error) (*phaseResult, error) {
	runtime.GC()
	r := &phaseResult{ph: ph, before: b.st.snap(gather)}
	r.rt0 = readRuntime()
	if err := run(ph); err != nil {
		return nil, fmt.Errorf("%s phase: %w", ph.name, err)
	}
	r.rt1 = readRuntime()
	r.after = b.st.snap(gather)
	r.peakRSS = peakRSSMB()
	return r, nil
}

// wall is the time from the phase's start to its last reply.
func (r *phaseResult) wall() time.Duration {
	var last int64
	for i := range r.ph.recs {
		last = max(last, r.ph.recs[i].reply)
	}
	return time.Duration(last)
}

// runProbe is one set-up probe: a fresh process sets up the stack, gets
// a verified reply of every op, and prints the set-up time.
func runProbe(o options) error {
	w, err := workloadByName(o.workload)
	if err != nil {
		return err
	}
	g, firsts, err := setupInputs(w, o.seed)
	if err != nil {
		return err
	}
	b, err := setUp(firsts)
	if err != nil {
		return err
	}
	defer b.close()
	pub, err := serverPub(b.st)
	if err != nil {
		return err
	}
	if err := checkECC(g, pub, b.ph); err != nil {
		return err
	}
	if _, ok, _ := b.ph.counts(); ok != len(firsts) {
		return fmt.Errorf("set-up: %d of %d replies verified", ok, len(firsts))
	}
	if err := b.close(); err != nil {
		return err
	}
	fmt.Printf("{\"setup_s\": %.6f}\n", b.setup.Seconds())
	return nil
}

// runProbes runs the set-up probes one after another, each a fresh
// process (calibration is once per process), and returns their set-up
// times in seconds.
func runProbes(o options) ([]float64, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	var out []float64
	for i := 0; i < setupProbes; i++ {
		ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
		cmd := exec.CommandContext(ctx, exe, "--setup-probe", "--workload", o.workload,
			"--seed", strconv.FormatInt(o.seed, 10))
		cmd.Stderr = os.Stderr
		stdout, err := cmd.Output()
		cancel()
		if err != nil {
			return nil, fmt.Errorf("set-up probe %d: %w", i, err)
		}
		var r struct {
			Setup float64 `json:"setup_s"`
		}
		if err := json.Unmarshal(bytes.TrimSpace(stdout), &r); err != nil || r.Setup <= 0 {
			return nil, fmt.Errorf("set-up probe %d printed %q", i, stdout)
		}
		out = append(out, r.Setup)
	}
	return out, nil
}

// serverPub is the ECC public key the backends advertise; both must
// advertise the same fleet key.
func serverPub(st *stack) (ecc.Point, error) {
	var hexKey string
	for i, s := range st.servers {
		info := s.Snapshot().Config.ECC
		if info == nil {
			return ecc.Point{}, fmt.Errorf("backend %d serves no ECC ops", i)
		}
		if i > 0 && info.PublicKey != hexKey {
			return ecc.Point{}, errors.New("backends advertise different ECC keys")
		}
		hexKey = info.PublicKey
	}
	raw, err := hex.DecodeString(hexKey)
	if err != nil {
		return ecc.Point{}, fmt.Errorf("advertised ECC key: %w", err)
	}
	curve, err := ecc.CurveByName(server.DefaultCurve)
	if err != nil {
		return ecc.Point{}, err
	}
	return curve.UnmarshalUncompressed(raw)
}

// checkECC checks the ECC replies of the given phases after timing:
// each distinct digest's signature once with the reference verifier
// (signing is deterministic, so every repeat must match it byte for
// byte), and every session reply opened with its device's key. A reply
// failing its check is marked failed.
func checkECC(g *gen, pub ecc.Point, phases ...*phase) error {
	type ref struct {
		sig []byte
		err error
	}
	sigs := map[*request]*ref{}
	type job struct {
		ph *phase
		i  int
	}
	var sessions []job
	for _, ph := range phases {
		for i := range ph.recs {
			rec, req := &ph.recs[i], ph.req(i)
			if !rec.ok {
				continue
			}
			switch req.spec.op {
			case server.OpECDSASign:
				sig := ph.payload(i)
				r := sigs[req]
				if r == nil {
					r = &ref{sig: sig, err: g.checkSign(pub, req.digest, sig)}
					sigs[req] = r
				}
				if r.err != nil || !bytes.Equal(r.sig, sig) {
					rec.ok = false
				}
			case server.OpSecureSession:
				sessions = append(sessions, job{ph, i})
			}
		}
	}
	// Opening a session costs a big.Int scalar multiply: spread the
	// openings over the CPUs.
	var wg sync.WaitGroup
	workers := runtime.GOMAXPROCS(0)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for j := w; j < len(sessions); j += workers {
				ph, i := sessions[j].ph, sessions[j].i
				if g.checkSession(ph.req(i), ph.payload(i)) != nil {
					ph.recs[i].ok = false
				}
			}
		}(w)
	}
	wg.Wait()
	for _, ph := range phases {
		if _, ok, failed := ph.counts(); failed > 0 {
			return fmt.Errorf("%s: %d of %d replies failed their checks", ph.name, failed, ok+failed)
		}
	}
	return nil
}

// checkCorrected checks that the backends corrected exactly the symbol
// errors the phase's rs-decode inputs carried.
func checkCorrected(r *phaseResult) error {
	want := int64(0)
	for i := range r.ph.recs {
		want += int64(r.ph.req(i).errors)
	}
	if got := r.after.Corrected - r.before.Corrected; got != want {
		return fmt.Errorf("%s: backends corrected %d symbols, inputs carried %d", r.ph.name, got, want)
	}
	return nil
}

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func runBench(o options) error {
	w, err := workloadByName(o.workload)
	if err != nil {
		return err
	}
	if o.seconds < 1 {
		return fmt.Errorf("--seconds %d, want at least 1", o.seconds)
	}
	if o.trace != 0 && o.trace != 1 {
		return fmt.Errorf("--trace %d, want 0 or 1", o.trace)
	}
	traced := o.trace == 1
	pl := w.plan(o.seconds)
	steal0, total0 := hostCPU()

	// Every input and expectation exists before set-up starts.
	g, err := newGen(o.seed)
	if err != nil {
		return err
	}
	pool, err := g.pool(w)
	if err != nil {
		return err
	}
	sg, firsts, err := setupInputs(w, o.seed)
	if err != nil {
		return err
	}
	ticks := arrivalTicks(o.seed^arrivalSalt, pl.paced, w.rate)

	var probes []float64
	if !traced {
		if probes, err = runProbes(o); err != nil {
			return err
		}
	}

	b, err := setUp(firsts)
	if err != nil {
		return err
	}
	defer b.close()
	closed := func(ph *phase) error { return b.cl.runClosed(ph, window, phaseLimit) }
	paced := func(ph *phase) error { return b.cl.runPaced(ph, ticks, phaseLimit) }

	if err := closed(newPhase("warm-up", 2, pool, pl.warm, phaseSeed(o.seed, 2), false)); err != nil {
		return fmt.Errorf("warm-up phase: %w", err)
	}
	capR, err := b.measure(newPhase("capacity", 3, pool, pl.capacity, phaseSeed(o.seed, 3), traced), traced, closed)
	if err != nil {
		return err
	}
	var refR *phaseResult
	if traced {
		// The same paced phase untraced, for the tracing overhead.
		if refR, err = b.measure(newPhase("paced-untraced", 4, pool, pl.paced, phaseSeed(o.seed, 5), false), false, paced); err != nil {
			return err
		}
	}
	pacedR, err := b.measure(newPhase("paced", 5, pool, pl.paced, phaseSeed(o.seed, 5), traced), traced, paced)
	if err != nil {
		return err
	}
	timed := []*phaseResult{capR, pacedR}
	if refR != nil {
		timed = append(timed, refR)
	}

	var failures []string
	note := func(err error) {
		if err != nil {
			failures = append(failures, err.Error())
		}
	}
	note(b.st.ledger(b.cl.sent.Load()))
	for _, r := range timed {
		note(checkCorrected(r))
	}
	pub, err := serverPub(b.st)
	if err != nil {
		return err
	}
	b.cl.close()
	b.cl = nil
	note(checkECC(sg, pub, b.ph))
	var phases []*phase
	for _, r := range timed {
		phases = append(phases, r.ph)
	}
	note(checkECC(g, pub, phases...))
	host := newHostRecord(o, w, b.st, pacedR, steal0, total0)
	setupSelf := b.setup
	note(b.close())

	out := &report{o: o, w: w, plan: pl, host: host, timed: timed, setupSelf: setupSelf,
		probes: probes, failures: failures}
	if traced {
		if out.layers, err = measureLayers(g, pool); err != nil {
			return fmt.Errorf("layer measurements: %w", err)
		}
		out.perLayer, out.budgets = perLayer(capR, pacedR, refR, out.layers)
	} else {
		out.endToEnd = endToEnd(probes, capR, pacedR)
	}
	note(dropNonFinite(out.metrics()))
	out.failures = failures
	if traced {
		if out.tracePath, err = writeTrace(out); err != nil {
			return err
		}
	}
	out.print(os.Stdout)
	if !out.correct() {
		return errors.New("failed checks: " + strings.Join(failures, "; "))
	}
	return nil
}
