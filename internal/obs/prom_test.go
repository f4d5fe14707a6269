package obs

import (
	"flag"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/perf"
)

var update = flag.Bool("update", false, "rewrite golden files")

// goldenRegistry builds a registry with fixed contents covering every
// exposition feature: help/label escaping, all three kinds, multiple
// label-sorted series, cumulative histogram buckets.
func goldenRegistry() *Registry {
	r := NewRegistry()
	r.CounterFunc("gfp_frames_total", "Frames processed.\nSecond line with back\\slash.",
		func() int64 { return 12 }, L("stage", "rs-encode"))
	r.CounterFunc("gfp_frames_total", "Frames processed.\nSecond line with back\\slash.",
		func() int64 { return 7 }, L("stage", "corrupt"))
	r.CounterFunc("gfp_escapes_total", `Label escaping probe.`, func() int64 { return 1 },
		L("path", `C:\tmp`), L("quote", `say "hi"`), L("nl", "a\nb"))
	r.GaugeFunc("gfp_rung", "Adaptive ladder rung.", func() float64 { return 3 })
	r.GaugeFunc("gfp_code_rate", "Active code rate.", func() float64 { return 223.0 / 255.0 })

	h := new(perf.Hist)
	h.Observe(100)   // bucket [64,128) -> le=1.28e-07
	h.Observe(100)   // same bucket
	h.Observe(5000)  // bucket [4096,8192) -> le=8.192e-06
	h.Observe(70000) // bucket [65536,131072) -> le=0.000131072
	r.HistogramFunc("gfp_latency_seconds", "Frame latency.", h)
	return r
}

func TestPrometheusGolden(t *testing.T) {
	var sb strings.Builder
	if err := goldenRegistry().WritePrometheus(&sb); err != nil {
		t.Fatalf("WritePrometheus: %v", err)
	}
	got := sb.String()

	golden := filepath.Join("testdata", "metrics.golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("read golden (run with -update to regenerate): %v", err)
	}
	if got != string(want) {
		t.Errorf("exposition differs from golden file:\n--- got ---\n%s--- want ---\n%s", got, want)
	}
}

func TestPrometheusEscaping(t *testing.T) {
	var sb strings.Builder
	if err := goldenRegistry().WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		`# HELP gfp_frames_total Frames processed.\nSecond line with back\\slash.`,
		`path="C:\\tmp"`,
		`quote="say \"hi\""`,
		`nl="a\nb"`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q", want)
		}
	}
	if strings.Contains(out, "say \"hi\"\n") {
		t.Error("raw unescaped quote leaked into exposition")
	}
}

func TestPrometheusHistogramShape(t *testing.T) {
	var sb strings.Builder
	if err := goldenRegistry().WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		"# TYPE gfp_latency_seconds histogram",
		`gfp_latency_seconds_bucket{le="1.28e-07"} 2`,
		`gfp_latency_seconds_bucket{le="8.192e-06"} 3`,
		`gfp_latency_seconds_bucket{le="0.000131072"} 4`,
		`gfp_latency_seconds_bucket{le="+Inf"} 4`,
		"gfp_latency_seconds_count 4",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q in:\n%s", want, out)
		}
	}
	// _sum = (100+100+5000+70000)ns = 7.52e-05 s
	if !strings.Contains(out, "gfp_latency_seconds_sum 7.52e-05") {
		t.Errorf("missing histogram _sum in:\n%s", out)
	}
}

func TestHandler(t *testing.T) {
	srv := httptest.NewServer(goldenRegistry().Handler())
	defer srv.Close()
	resp, err := srv.Client().Get(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != ContentType {
		t.Errorf("Content-Type = %q, want %q", ct, ContentType)
	}
	buf := make([]byte, 1<<16)
	n, _ := resp.Body.Read(buf)
	if !strings.Contains(string(buf[:n]), "gfp_frames_total") {
		t.Error("handler response missing registered metric")
	}
}

func TestWriteJSON(t *testing.T) {
	var sb strings.Builder
	if err := goldenRegistry().WriteJSON(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		`"name": "gfp_frames_total"`,
		`"kind": "counter"`,
		`"kind": "histogram"`,
		`"p99_ns"`,
		`"upper_ns"`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("JSON dump missing %q", want)
		}
	}
}
