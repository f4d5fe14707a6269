package main

import (
	"encoding/json"
	"io"
	"os"
	"reflect"
	"strings"
	"testing"

	"repro/internal/gf"
)

func baseConfig() cliConfig {
	return cliConfig{
		frames: 40, n: 255, k: 239, depth: 2,
		workers: 2, queue: 4,
		chName: "bsc", ebn0: 6.5,
		seed:  1,
		quiet: true,
		// adaptive defaults (unused unless adaptiveMode)
		ladder:   "251,239,223,191,127",
		schedule: "30:8,40:8>4:burst,30:4>8",
		stepUp:   8,
	}
}

// TestExplicitZeroCrossover: `-p 0` must mean a genuinely error-free
// channel. Regression: p == 0 used to be indistinguishable from "flag
// unset" and silently fell back to the Eb/N0-derived probability.
func TestExplicitZeroCrossover(t *testing.T) {
	cfg := baseConfig()
	cfg.ebn0 = 0.5 // ~8% raw BER: would corrupt heavily if -p 0 were ignored
	cfg.pSet = true
	cfg.pOverride = 0
	res, err := run(cfg, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if res.failed != 0 || res.corrected != 0 {
		t.Fatalf("explicit -p 0: %d failed, %d corrected; want a clean channel",
			res.failed, res.corrected)
	}

	// Same operating point without -p: the Eb/N0 fallback must still
	// corrupt (and at 0.5dB with t=8, visibly so).
	cfg.pSet = false
	res, err = run(cfg, io.Discard)
	if err == nil && res.corrected == 0 && res.failed == 0 {
		t.Fatal("Eb/N0 fallback no longer corrupts; the -p test is vacuous")
	}
}

// TestExplicitNonzeroCrossover: an explicit -p still overrides -ebn0.
func TestExplicitNonzeroCrossover(t *testing.T) {
	cfg := baseConfig()
	cfg.ebn0 = 12 // essentially clean if the override were dropped
	cfg.pSet = true
	cfg.pOverride = 0.004
	res, err := run(cfg, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if res.corrected == 0 {
		t.Fatal("explicit -p 0.004 produced no corrections; override ignored")
	}
}

// TestAdaptiveWalksLadderDeterministically is the CLI-level acceptance
// check: over a degrade-then-recover schedule the run must step down
// the rate ladder during the degraded episode and back up after it,
// with epoch stats covering every frame — and two identically seeded
// runs must produce the identical trajectory and stats.
func TestAdaptiveWalksLadderDeterministically(t *testing.T) {
	cfg := baseConfig()
	cfg.adaptiveMode = true
	cfg.schedule = "60:8,120:8>4:burst,120:4>8"
	cfg.stepUp = 16

	var sb strings.Builder
	res1, err := run(cfg, &sb)
	if err != nil {
		t.Fatal(err)
	}
	res2, err := run(cfg, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res1.transitions, res2.transitions) {
		t.Fatalf("trajectories diverged across identical runs:\n%v\n%v",
			res1.transitions, res2.transitions)
	}
	if !reflect.DeepEqual(res1.epochs, res2.epochs) {
		t.Fatal("epoch stats diverged across identical runs")
	}

	var downs, ups int
	for _, tr := range res1.transitions {
		if tr.To > tr.From {
			downs++
		} else {
			ups++
		}
	}
	if downs == 0 || ups == 0 {
		t.Fatalf("trajectory %v: want steps down during degradation and back up after",
			res1.transitions)
	}
	frames := 0
	for _, e := range res1.epochs {
		frames += e.Frames
	}
	if frames != 300 {
		t.Fatalf("epoch stats cover %d frames, want 300", frames)
	}
	out := sb.String()
	for _, want := range []string{"rate trajectory", "per-epoch", "goodput"} {
		if !strings.Contains(out, want) {
			t.Errorf("report missing %q section", want)
		}
	}
}

// TestAdaptiveFramesOverride: an explicit -frames runs past the
// schedule's end (clamped to the last operating point).
func TestAdaptiveFramesOverride(t *testing.T) {
	cfg := baseConfig()
	cfg.adaptiveMode = true
	cfg.schedule = "40:8"
	cfg.frames = 70
	cfg.framesSet = true
	res, err := run(cfg, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if res.frames != 70 {
		t.Fatalf("ran %d frames, want 70", res.frames)
	}
}

// TestRunKeepsForcedKernelTier: GFP_KERNEL_TIER=scalar (applied at
// init, or gf.ForceScalarKernels) is the one kernel-tier switch, so run
// must leave the scalar force in place.
func TestRunKeepsForcedKernelTier(t *testing.T) {
	defer gf.ForceScalarKernels(gf.ScalarKernelsForced())
	gf.ForceScalarKernels(true)
	cfg := baseConfig()
	cfg.frames = 4
	if _, err := run(cfg, io.Discard); err != nil {
		t.Fatal(err)
	}
	if !gf.ScalarKernelsForced() {
		t.Fatal("ScalarKernelsForced() after run = false, want true")
	}
}

func TestBadFlags(t *testing.T) {
	cfg := baseConfig()
	cfg.chName = "plasma"
	if _, err := run(cfg, io.Discard); err == nil {
		t.Error("unknown channel accepted")
	}
	cfg = baseConfig()
	cfg.adaptiveMode = true
	cfg.ladder = "239,abc"
	if _, err := run(cfg, io.Discard); err == nil {
		t.Error("bad ladder accepted")
	}
	cfg = baseConfig()
	cfg.adaptiveMode = true
	cfg.schedule = "nope"
	if _, err := run(cfg, io.Discard); err == nil {
		t.Error("bad schedule accepted")
	}
}

// TestValidateRejectsBadCombos: every nonsensical flag combination must
// be refused up front with an error naming the flag, before any codec
// construction runs.
func TestValidateRejectsBadCombos(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(*cliConfig)
		want   string // substring the error must carry
	}{
		{"zero n", func(c *cliConfig) { c.n = 0 }, "-n"},
		{"negative k", func(c *cliConfig) { c.k = -1 }, "-k"},
		{"k at n", func(c *cliConfig) { c.k = c.n }, "below"},
		{"k above n", func(c *cliConfig) { c.k = c.n + 1 }, "below"},
		{"zero depth", func(c *cliConfig) { c.depth = 0 }, "-depth"},
		{"negative workers", func(c *cliConfig) { c.workers = -1 }, "-workers"},
		{"negative queue", func(c *cliConfig) { c.queue = -3 }, "-queue"},
		{"zero frames", func(c *cliConfig) { c.frames = 0 }, "-frames"},
		{"adaptive zero frames", func(c *cliConfig) {
			c.adaptiveMode = true
			c.framesSet = true
			c.frames = 0
		}, "-frames"},
		{"adaptive negative window", func(c *cliConfig) { c.adaptiveMode = true; c.window = -1 }, "-window"},
		{"adaptive zero stepup", func(c *cliConfig) { c.adaptiveMode = true; c.stepUp = 0 }, "-stepup"},
	}
	for _, tc := range cases {
		cfg := baseConfig()
		tc.mutate(&cfg)
		_, err := run(cfg, io.Discard)
		if err == nil {
			t.Errorf("%s: accepted", tc.name)
			continue
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %q does not name %q", tc.name, err, tc.want)
		}
	}
}

// TestValidateAcceptsDefaults: the flag defaults themselves must pass
// validation in both modes.
func TestValidateAcceptsDefaults(t *testing.T) {
	cfg := baseConfig()
	if err := cfg.validate(); err != nil {
		t.Errorf("fixed-mode defaults rejected: %v", err)
	}
	cfg.adaptiveMode = true
	if err := cfg.validate(); err != nil {
		t.Errorf("adaptive-mode defaults rejected: %v", err)
	}
}

// TestMetricsOutDump: -metrics-out leaves a JSON registry dump on disk
// with the pipeline stage instruments populated.
func TestMetricsOutDump(t *testing.T) {
	cfg := baseConfig()
	cfg.metricsOut = t.TempDir() + "/metrics.json"
	if _, err := run(cfg, io.Discard); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(cfg.metricsOut)
	if err != nil {
		t.Fatal(err)
	}
	var metrics []struct {
		Name    string `json:"name"`
		Kind    string `json:"kind"`
		Samples []struct {
			Value float64 `json:"value"`
		} `json:"samples"`
	}
	if err := json.Unmarshal(raw, &metrics); err != nil {
		t.Fatalf("dump not JSON: %v", err)
	}
	byName := map[string]float64{}
	for _, m := range metrics {
		if len(m.Samples) > 0 {
			byName[m.Name] = m.Samples[0].Value
		}
	}
	if got := byName["gfp_pipeline_stage_frames_total"]; got != float64(cfg.frames) {
		t.Errorf("stage frames = %g, want %d", got, cfg.frames)
	}
	if _, ok := byName["gfp_gf_kernel_calls_total"]; !ok {
		t.Error("dump missing gfp_gf_kernel_calls_total")
	}
}

// TestMetricsOutAdaptive: the adaptive run's dump includes controller
// and driver instruments.
func TestMetricsOutAdaptive(t *testing.T) {
	cfg := baseConfig()
	cfg.adaptiveMode = true
	cfg.workers, cfg.queue, cfg.window = 1, 2, 2
	cfg.metricsOut = t.TempDir() + "/metrics.json"
	if _, err := run(cfg, io.Discard); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(cfg.metricsOut)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"gfp_adaptive_rung", "gfp_adaptive_frames_delivered_total",
		"gfp_adaptive_goodput", "gfp_pipeline_stage_frames_total",
	} {
		if !strings.Contains(string(raw), want) {
			t.Errorf("adaptive dump missing %s", want)
		}
	}
}
