// Command gfpipe drives a concurrent frame-processing pipeline at load
// and reports throughput, latency and correction statistics — the
// "production-scale" counterpart of the one-shot codec CLIs: the same
// encode -> interleave -> channel -> deinterleave -> decode datapath
// (optionally AES-GCM sealed end to end), fanned out over per-stage
// worker pools with bounded queues and in-order delivery.
//
// With -adaptive it instead runs the closed-loop link controller of
// internal/adaptive over a time-varying channel: decode feedback walks a
// ladder of RS(255,k) codes — stronger under degradation, relaxing back
// with hysteresis — and the report shows the rate trajectory plus
// per-epoch goodput and residual failure rate. The whole run is
// deterministic in -seed.
//
// Usage:
//
//	gfpipe [-frames 2000] [-n 255] [-k 239] [-depth 4] [-batch 1]
//	       [-workers 0] [-queue 0] [-channel bsc|burst|none] [-ebn0 6.5]
//	       [-p 0] [-gcm] [-metered] [-seed 1] [-quiet]
//	gfpipe -adaptive [-ladder 251,239,223,191,127]
//	       [-schedule 400:7,600:7>4:burst,400:4>7,400:7]
//	       [-window 0] [-stepup 48]
//
// Examples:
//
//	gfpipe                          # RS(255,239) x4 over a BSC at Eb/N0 6.5dB
//	gfpipe -gcm -channel burst      # sealed frames over a bursty channel
//	gfpipe -depth 1 -metered        # single-codeword frames with cycle accounting
//	gfpipe -workers 1               # serialize every stage (scaling baseline)
//	gfpipe -p 0                     # explicit zero-crossover channel (lossless)
//	gfpipe -adaptive                # rate-adaptive link over a drifting channel
package main

import (
	"bytes"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"os"
	"runtime"
	"strconv"
	"strings"
	"time"

	"repro/internal/adaptive"
	"repro/internal/aes"
	"repro/internal/channel"
	"repro/internal/gf"
	"repro/internal/kernels"
	"repro/internal/obs"
	"repro/internal/pipeline"
	"repro/internal/rs"
)

// cliConfig carries every flag; pSet/framesSet record whether -p/-frames
// were explicitly given (flag.Visit), so `-p 0` means a genuine
// zero-crossover channel instead of falling back to the Eb/N0-derived
// probability.
type cliConfig struct {
	frames     int
	n, k       int
	depth      int
	batch      int
	workers    int
	queue      int
	chName     string
	ebn0       float64
	pOverride  float64
	pSet       bool
	useGCM     bool
	metered    bool
	seed       int64
	quiet      bool
	metricsOut string

	adaptiveMode bool
	ladder       string
	schedule     string
	window       int
	stepUp       int
	framesSet    bool
}

// result summarizes a run for CLI-level tests.
type result struct {
	frames    int
	failed    int
	corrected int

	// adaptive mode only
	undetected  int // delivered frames whose payload was silently wrong
	transitions []adaptive.Transition
	epochs      []adaptive.EpochStats
}

func main() {
	var cfg cliConfig
	flag.IntVar(&cfg.frames, "frames", 2000, "frames to push through the pipeline")
	flag.IntVar(&cfg.n, "n", 255, "RS codeword length (symbols, over GF(2^8))")
	flag.IntVar(&cfg.k, "k", 239, "RS message length (symbols)")
	flag.IntVar(&cfg.depth, "depth", 4, "interleaving depth (codewords per frame)")
	flag.IntVar(&cfg.batch, "batch", 1, "interleaver frames packed per pipeline frame (amortizes per-frame handoff)")
	flag.IntVar(&cfg.workers, "workers", 0, "workers per stage (0 = GOMAXPROCS)")
	flag.IntVar(&cfg.queue, "queue", 0, "per-stage queue depth (0 = 2*workers)")
	flag.StringVar(&cfg.chName, "channel", "bsc", "channel model: bsc, burst or none")
	flag.Float64Var(&cfg.ebn0, "ebn0", 6.5, "Eb/N0 (dB) for the BPSK/AWGN flip probability")
	flag.Float64Var(&cfg.pOverride, "p", 0, "explicit crossover probability (overrides -ebn0, 0 is honored)")
	flag.BoolVar(&cfg.useGCM, "gcm", false, "AES-GCM seal before encode, open after decode")
	flag.BoolVar(&cfg.metered, "metered", false, "metered RS decode with cycle accounting (needs -depth 1)")
	flag.Int64Var(&cfg.seed, "seed", 1, "rng seed (payloads and channel)")
	flag.BoolVar(&cfg.quiet, "quiet", false, "suppress the per-stage table")
	flag.StringVar(&cfg.metricsOut, "metrics-out", "", "write a JSON metrics registry dump to this file on exit")
	flag.BoolVar(&cfg.adaptiveMode, "adaptive", false, "closed-loop rate adaptation over a time-varying channel")
	flag.StringVar(&cfg.ladder, "ladder", "251,239,223,191,127",
		"adaptive: comma-separated k values of the RS(n,k) rate ladder, highest rate first")
	flag.StringVar(&cfg.schedule, "schedule", "400:8,600:8>4:burst,400:4>8,400:8",
		"adaptive: channel schedule, FRAMES:EBN0[>END][:burst],... (frames default to its total)")
	flag.IntVar(&cfg.window, "window", 0, "adaptive: max frames in flight (0 = pipeline queue depth)")
	flag.IntVar(&cfg.stepUp, "stepup", 48, "adaptive: clean frames required before relaxing the code")
	flag.Parse()
	flag.Visit(func(f *flag.Flag) {
		switch f.Name {
		case "p":
			cfg.pSet = true
		case "frames":
			cfg.framesSet = true
		}
	})

	if _, err := run(cfg, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "gfpipe:", err)
		os.Exit(1)
	}
}

func run(cfg cliConfig, w io.Writer) (*result, error) {
	if cfg.batch == 0 {
		cfg.batch = 1 // zero value from config literals = unbatched
	}
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if cfg.adaptiveMode {
		return runAdaptive(cfg, w)
	}
	return runFixed(cfg, w)
}

// validate rejects nonsensical flag combinations up front, before any
// codec tables are built or goroutines started, so the error names the
// flag instead of surfacing as a construction failure deep in a
// subsystem.
func (cfg cliConfig) validate() error {
	if cfg.n <= 0 || cfg.k <= 0 {
		return fmt.Errorf("-n %d and -k %d must be positive", cfg.n, cfg.k)
	}
	if cfg.k >= cfg.n {
		return fmt.Errorf("-k %d must be below -n %d (no parity symbols otherwise)", cfg.k, cfg.n)
	}
	if cfg.depth <= 0 {
		return fmt.Errorf("-depth %d must be positive", cfg.depth)
	}
	if cfg.workers < 0 || cfg.queue < 0 {
		return fmt.Errorf("-workers %d and -queue %d must be non-negative", cfg.workers, cfg.queue)
	}
	if cfg.batch < 0 {
		return fmt.Errorf("-batch %d must be positive", cfg.batch)
	}
	if cfg.metered && cfg.depth != 1 {
		return fmt.Errorf("-metered requires -depth 1 (per-codeword cycle accounting)")
	}
	if cfg.metered && cfg.batch > 1 {
		return fmt.Errorf("-metered requires -batch 1 (per-codeword cycle accounting)")
	}
	if cfg.adaptiveMode && cfg.batch > 1 {
		return fmt.Errorf("-adaptive requires -batch 1 (the feedback window is per frame)")
	}
	if !cfg.adaptiveMode || cfg.framesSet {
		if cfg.frames < 1 {
			return fmt.Errorf("-frames %d: need at least one frame", cfg.frames)
		}
	}
	if cfg.adaptiveMode {
		if cfg.window < 0 {
			return fmt.Errorf("-window %d must be non-negative", cfg.window)
		}
		if cfg.stepUp < 1 {
			return fmt.Errorf("-stepup %d must be positive", cfg.stepUp)
		}
	}
	return nil
}

// runFixed is the original single-code load driver.
func runFixed(cfg cliConfig, w io.Writer) (*result, error) {
	f8 := gf.MustDefault(8)
	code, err := rs.New(f8, cfg.n, cfg.k)
	if err != nil {
		return nil, err
	}
	iv, err := rs.NewInterleaved(code, cfg.depth)
	if err != nil {
		return nil, err
	}

	// -p set explicitly (even to 0) wins; otherwise derive from -ebn0.
	p := cfg.pOverride
	if !cfg.pSet && cfg.chName != "none" {
		p = channel.BPSKBitErrorProb(cfg.ebn0)
	}
	var stages []pipeline.Stage

	var gcm *aes.GCM
	aad := []byte("gfpipe")
	if cfg.useGCM {
		cipher, err := aes.NewCipher([]byte("gfpipe-demo-key!"))
		if err != nil {
			return nil, err
		}
		gcm = cipher.NewGCM()
		stages = append(stages, pipeline.NewSealAEAD(gcm, aad))
	}

	enc, err := pipeline.NewRSFrameEncode(iv)
	if err != nil {
		return nil, err
	}
	stages = append(stages, enc)

	switch cfg.chName {
	case "none":
	case "bsc":
		bsc, err := channel.NewBSC(p, cfg.seed)
		if err != nil {
			return nil, err
		}
		corrupt, err := pipeline.NewCorrupt(bsc, 8, cfg.seed)
		if err != nil {
			return nil, err
		}
		stages = append(stages, corrupt)
	case "burst":
		// A bursty channel with the same average flip rate.
		ge, err := channel.NewBurstAvg(p, cfg.seed)
		if err != nil {
			return nil, err
		}
		corrupt, err := pipeline.NewCorrupt(ge, 8, cfg.seed)
		if err != nil {
			return nil, err
		}
		stages = append(stages, corrupt)
	default:
		return nil, fmt.Errorf("unknown channel %q (want bsc, burst or none)", cfg.chName)
	}

	if cfg.metered {
		dec, err := pipeline.NewMeteredRSDecode(code, kernels.GFProc)
		if err != nil {
			return nil, err
		}
		stages = append(stages, dec)
	} else {
		dec, err := pipeline.NewRSFrameDecode(iv)
		if err != nil {
			return nil, err
		}
		stages = append(stages, dec)
	}
	if cfg.useGCM {
		stages = append(stages, pipeline.NewOpenAEAD(gcm, aad))
	}

	pl, err := pipeline.New(pipeline.Config{Workers: cfg.workers, Queue: cfg.queue, Batch: cfg.batch}, stages...)
	if err != nil {
		return nil, err
	}

	// Each pipeline frame packs -batch interleaver frames; with -gcm one
	// tag per pipeline frame rides inside the coded payload.
	payloadLen := cfg.batch * iv.FrameK()
	if cfg.useGCM {
		payloadLen -= 16
	}
	rng := rand.New(rand.NewSource(cfg.seed))
	payloads := make([][]byte, cfg.frames)
	for i := range payloads {
		payloads[i] = make([]byte, payloadLen)
		rng.Read(payloads[i])
	}

	pcfg := pl.Config()
	fmt.Fprintf(w, "gfpipe: %d frames x %dB payload, RS(%d,%d) depth %d, batch %d, %d workers/stage, queue %d\n",
		cfg.frames, payloadLen, cfg.n, cfg.k, cfg.depth, cfg.batch, pcfg.Workers, pcfg.Queue)
	if cfg.chName != "none" {
		fmt.Fprintf(w, "channel: %s (bit flip p=%.3e)\n", cfg.chName, p)
	}

	reg := obs.NewRegistry()
	pl.RegisterMetrics(reg)
	pipeline.RegisterGFKernelMetrics(reg)

	start := time.Now()
	got, runErr := pl.Start().Drain(payloads)
	elapsed := time.Since(start)

	// Dump before the failure checks so a failed run still leaves its
	// numbers on disk.
	if cfg.metricsOut != "" {
		if err := dumpRegistry(cfg.metricsOut, reg); err != nil {
			return nil, err
		}
	}

	res := &result{frames: cfg.frames}
	mismatched := 0
	for i, fr := range got {
		if fr.Err != nil {
			res.failed++
			continue
		}
		res.corrected += fr.Corrected
		if len(fr.Data) != payloadLen {
			mismatched++
			continue
		}
		if !bytes.Equal(fr.Data, payloads[i]) {
			mismatched++
		}
		fr.Recycle()
	}
	if mismatched > 0 {
		return res, fmt.Errorf("%d frames round-tripped to wrong bytes", mismatched)
	}

	goodput := float64(payloadLen) * float64(cfg.frames-res.failed) / elapsed.Seconds()
	fmt.Fprintf(w, "\n%-22s %d ok, %d failed (%.3g%% frame loss), %d symbols corrected\n",
		"frames:", cfg.frames-res.failed, res.failed,
		100*float64(res.failed)/float64(cfg.frames), res.corrected)
	fmt.Fprintf(w, "%-22s %v wall, %.0f frames/s (%.0f codewords/s), %.2f MB/s goodput\n",
		"throughput:", elapsed.Round(time.Millisecond),
		float64(cfg.frames)/elapsed.Seconds(),
		float64(cfg.frames*cfg.batch*cfg.depth)/elapsed.Seconds(), goodput/1e6)
	fmt.Fprintf(w, "%-22s %s\n", "end-to-end latency:", pl.Total.String())
	if runErr != nil {
		fmt.Fprintf(w, "%-22s %v\n", "first failure:", runErr)
	}

	if !cfg.quiet {
		fmt.Fprintln(w, "\nper-stage:")
		for _, st := range pl.Stats() {
			fmt.Fprintln(w, "  "+st.String())
		}
	}
	if cfg.metered {
		for _, st := range pl.Stats() {
			counts := st.Counts()
			if counts.Total() == 0 {
				continue
			}
			prof := kernels.GFProc.Profile()
			cyc := counts.Cycles(prof)
			fmt.Fprintf(w, "\nmetered %s (%s): %d ops, %d cycles total, %.0f cycles/frame, %d GF SIMD ops\n",
				st.Name, prof.Name, counts.Total(), cyc, float64(cyc)/float64(cfg.frames), counts.GFOp)
		}
	}

	// Surface the parallelism actually available so scaling numbers are
	// interpretable when pasted into reports.
	fmt.Fprintf(w, "\nhost: GOMAXPROCS=%d NumCPU=%d\n", runtime.GOMAXPROCS(0), runtime.NumCPU())
	return res, nil
}

// dumpRegistry writes the registry's JSON snapshot to path.
func dumpRegistry(path string, reg *obs.Registry) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("metrics-out: %w", err)
	}
	if err := reg.WriteJSON(f); err != nil {
		f.Close()
		return fmt.Errorf("metrics-out: %w", err)
	}
	return f.Close()
}

// parseLadder parses the -ladder k list.
func parseLadder(s string) ([]int, error) {
	var ks []int
	for _, part := range strings.Split(s, ",") {
		k, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil {
			return nil, fmt.Errorf("bad ladder entry %q", part)
		}
		ks = append(ks, k)
	}
	return ks, nil
}

// runAdaptive runs the closed-loop rate-adaptive link.
func runAdaptive(cfg cliConfig, w io.Writer) (*result, error) {
	episodes, err := channel.ParseSchedule(cfg.schedule)
	if err != nil {
		return nil, err
	}
	tv, err := channel.NewTimeVarying(episodes, cfg.seed)
	if err != nil {
		return nil, err
	}
	frames := tv.TotalFrames()
	if cfg.framesSet {
		frames = cfg.frames
	}
	ks, err := parseLadder(cfg.ladder)
	if err != nil {
		return nil, err
	}
	f8 := gf.MustDefault(8)
	ladder, err := adaptive.NewLadder(f8, cfg.n, ks, cfg.depth)
	if err != nil {
		return nil, err
	}
	ctrl, err := adaptive.NewController(ladder, 0, adaptive.Config{StepUpAfter: cfg.stepUp})
	if err != nil {
		return nil, err
	}
	enc, err := adaptive.NewEncodeStage(ctrl)
	if err != nil {
		return nil, err
	}
	dec, err := adaptive.NewDecodeStage(ctrl)
	if err != nil {
		return nil, err
	}
	corrupt, err := pipeline.NewCorruptTV(tv, 8)
	if err != nil {
		return nil, err
	}
	pl, err := pipeline.New(pipeline.Config{Workers: cfg.workers, Queue: cfg.queue},
		enc, corrupt, dec)
	if err != nil {
		return nil, err
	}

	pcfg := pl.Config()
	fmt.Fprintf(w, "gfpipe adaptive: ladder %s, %d workers/stage, queue %d\n",
		ladder, pcfg.Workers, pcfg.Queue)
	fmt.Fprintf(w, "channel: %s\n", tv.Description())

	// Per-seq deterministic payloads, retained until delivery for
	// round-trip verification.
	pending := make(map[uint64][]byte)
	mismatched := 0
	drv := &adaptive.Driver{
		Ctrl:   ctrl,
		Window: cfg.window,
		Payload: func(seq uint64, size int) []byte {
			rng := rand.New(rand.NewSource(cfg.seed ^ int64((seq+1)*0x9E3779B9)))
			b := make([]byte, size)
			rng.Read(b)
			pending[seq] = b
			return b
		},
		OnFrame: func(f *pipeline.Frame) {
			want := pending[f.Seq]
			delete(pending, f.Seq)
			if f.Err == nil && !bytes.Equal(f.Data, want) {
				mismatched++
			}
			f.Recycle()
		},
	}

	reg := obs.NewRegistry()
	pl.RegisterMetrics(reg)
	pipeline.RegisterGFKernelMetrics(reg)
	ctrl.RegisterMetrics(reg)
	drv.RegisterMetrics(reg)

	start := time.Now()
	epochs, err := drv.Run(pl, frames)
	elapsed := time.Since(start)
	if cfg.metricsOut != "" {
		if derr := dumpRegistry(cfg.metricsOut, reg); derr != nil && err == nil {
			err = derr
		}
	}
	if err != nil {
		return nil, err
	}

	// A decode "success" past the code's bound can be a miscorrection —
	// the decoder lands on a wrong codeword and delivers wrong bytes
	// undetected. A real receiver can't see these without an outer check
	// (CRC or AEAD); here the loopback harness can, so report them as
	// the residual undetected-error rate instead of aborting.
	res := &result{frames: frames, undetected: mismatched,
		transitions: ctrl.Transitions(), epochs: epochs}
	var payloadBytes, channelBytes int64
	for _, e := range epochs {
		res.failed += e.Failed
		res.corrected += e.Corrected
		payloadBytes += e.PayloadBytes
		channelBytes += e.ChannelBytes
	}

	fmt.Fprintf(w, "\nrate trajectory (%d transitions):\n", len(res.transitions))
	if len(res.transitions) == 0 {
		fmt.Fprintln(w, "  (none — the channel never pushed the code off its rung)")
	}
	for _, tr := range res.transitions {
		fmt.Fprintf(w, "  %s, now %s\n", tr, ladder.Rung(tr.To))
	}

	fmt.Fprintln(w, "\nper-epoch:")
	for _, e := range epochs {
		fmt.Fprintf(w, "  epoch %-3d %-16s frames %-6d (seq %d-%d) failed %-5d (%.3g%%) corrected %-7d goodput %.3f\n",
			e.Epoch, ladder.Rung(e.Rung), e.Frames, e.FirstSeq, e.LastSeq,
			e.Failed, 100*e.FailureRate(), e.Corrected, e.Goodput())
	}

	overall := 0.0
	if channelBytes > 0 {
		overall = float64(payloadBytes) / float64(channelBytes)
	}
	fmt.Fprintf(w, "\n%-22s %d ok, %d failed (%.3g%% frame loss), %d symbols corrected\n",
		"frames:", frames-res.failed, res.failed,
		100*float64(res.failed)/float64(frames), res.corrected)
	fmt.Fprintf(w, "%-22s %d frames delivered with undetected wrong bytes (miscorrections past the bound)\n",
		"residual:", res.undetected)
	fmt.Fprintf(w, "%-22s %.3f payload bytes per channel byte (%.2f MB/s delivered)\n",
		"goodput:", overall, float64(payloadBytes)/elapsed.Seconds()/1e6)
	fmt.Fprintf(w, "%-22s %v wall, %.0f frames/s\n",
		"throughput:", elapsed.Round(time.Millisecond), float64(frames)/elapsed.Seconds())
	fmt.Fprintf(w, "%-22s %s\n", "end-to-end latency:", pl.Total.String())

	if !cfg.quiet {
		fmt.Fprintln(w, "\nper-stage:")
		for _, st := range pl.Stats() {
			fmt.Fprintln(w, "  "+st.String())
		}
	}
	fmt.Fprintf(w, "\nhost: GOMAXPROCS=%d NumCPU=%d\n", runtime.GOMAXPROCS(0), runtime.NumCPU())
	return res, nil
}
