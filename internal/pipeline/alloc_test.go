package pipeline

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/channel"
	"repro/internal/gf"
	"repro/internal/rs"
)

// rsStages returns the RS stage pair for c at the given interleaving
// depth (1 is the plain code).
func rsStages(t testing.TB, c *rs.Code, depth int) (*RSFrameEncode, *RSFrameDecode) {
	t.Helper()
	iv, err := rs.NewInterleaved(c, depth)
	if err != nil {
		t.Fatal(err)
	}
	e, err := NewRSFrameEncode(iv)
	if err != nil {
		t.Fatal(err)
	}
	d, err := NewRSFrameDecode(iv)
	if err != nil {
		t.Fatal(err)
	}
	return e, d
}

// buildLinkStages assembles the per-worker instances of a full
// encode -> corrupt -> decode chain over RS(255,223) at the given depth,
// as startStage would for worker 0.
func buildLinkStages(t testing.TB, depth int) (enc, cor, dec Stage, payload []byte) {
	t.Helper()
	c := rs.Must(gf.MustDefault(8), 255, 223)
	e, d := rsStages(t, c, depth)
	bsc, err := channel.NewBSC(0.002, 1)
	if err != nil {
		t.Fatal(err)
	}
	co, err := NewCorrupt(bsc, 8, 7)
	if err != nil {
		t.Fatal(err)
	}
	payload = make([]byte, depth*c.K)
	rng := rand.New(rand.NewSource(5))
	for i := range payload {
		payload[i] = byte(rng.Intn(256))
	}
	return e.ForWorker(0), co.ForWorker(0), d.ForWorker(0), payload
}

// TestFrameLinkStagesZeroAlloc is the pipeline's allocation check: once
// a worker's stage instances are warm, pushing a frame through
// encode -> corrupt -> decode allocates nothing — payload buffers cycle
// through the pool and all codec scratch lives on the worker instances —
// at depth 1 (the plain code) and at depth 4, where a burst on
// consecutive frame symbols is spread across the codewords.
func TestFrameLinkStagesZeroAlloc(t *testing.T) {
	for _, depth := range []int{1, 4} {
		t.Run(fmt.Sprintf("depth=%d", depth), func(t *testing.T) {
			enc, cor, dec, payload := buildLinkStages(t, depth)
			f := new(Frame) // reused: the frame itself is pooled by callers in practice
			run := func() {
				*f = Frame{Data: payload}
				if err := enc.Process(f); err != nil {
					t.Fatal(err)
				}
				if err := cor.Process(f); err != nil {
					t.Fatal(err)
				}
				// Burst hitting consecutive frame symbols: spread across
				// codewords by the interleaver, well within capability.
				for i := 100; i < 100+3*depth; i++ {
					f.Data[i] ^= 0x5a
				}
				if err := dec.Process(f); err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(f.Data, payload) {
					t.Fatal("roundtrip mismatch")
				}
				f.Recycle()
			}
			run() // warm pool and scratch
			if raceEnabled {
				run()
				t.Skip("alloc counting is unreliable under -race (pool randomization)")
			}
			if avg := testing.AllocsPerRun(200, run); avg != 0 {
				t.Fatalf("steady-state link allocates %.1f times per frame, want 0", avg)
			}
		})
	}
}

// TestSubmitDeliverZeroAlloc walks the whole engine — Submit, ring
// handoff, stage workers, the deliver func — and requires the steady
// state to allocate nothing per frame. Regression: Submit used to build
// a fresh &Frame{} per call (192 B/frame) instead of drawing from
// framePool; the 0.5 threshold makes any reintroduced 1-alloc-per-frame
// path fail, while tolerating a stray GC emptying a pool mid-run.
// The payload is four codewords: a batch of four at depth 1, one frame
// at depth 4.
func TestSubmitDeliverZeroAlloc(t *testing.T) {
	c := rs.Must(gf.MustDefault(8), 255, 223)
	for _, depth := range []int{1, 4} {
		t.Run(fmt.Sprintf("depth=%d", depth), func(t *testing.T) {
			e, d := rsStages(t, c, depth)
			delivered := make(chan bool, 1)
			r := Must(Config{Workers: 1, Queue: 4}, e, d).Start(func(f *Frame) {
				ok := f.Err == nil
				f.Free()
				delivered <- ok
			})
			payload := make([]byte, 4*c.K)
			rand.New(rand.NewSource(7)).Read(payload)
			run := func() {
				r.Submit(payload)
				if !<-delivered {
					t.Fatal("frame failed in pipeline")
				}
			}
			for i := 0; i < 8; i++ {
				run() // warm frame pool, payload pool and codec scratch
			}
			if raceEnabled {
				r.Close()
				t.Skip("alloc counting is unreliable under -race (pool randomization)")
			}
			avg := testing.AllocsPerRun(200, run)
			r.Close()
			r.Wait()
			if avg >= 0.5 {
				t.Fatalf("steady-state submit->deliver allocates %.2f times per frame, want 0", avg)
			}
		})
	}
}

// TestRecycleSafety pins the pool ownership contract: Recycle is a no-op
// without a pooled buffer, idempotent with one, and a recycled buffer is
// handed back out by the pool.
func TestRecycleSafety(t *testing.T) {
	f := &Frame{Data: []byte{1, 2, 3}}
	f.Recycle() // no pooled buffer: must not touch Data
	if f.Data == nil {
		t.Fatal("Recycle cleared caller-owned Data")
	}
	pb := getBuf(16)
	f.setPooled(pb)
	if len(f.Data) != 16 {
		t.Fatalf("Data len = %d, want 16", len(f.Data))
	}
	f.Recycle()
	if f.Data != nil || f.pooled != nil {
		t.Fatal("Recycle left pooled state behind")
	}
	f.Recycle() // idempotent
}

// BenchmarkLinkStages measures the warm single-worker chain; allocs/op
// is the headline number (must be 0).
func BenchmarkLinkStages(b *testing.B) {
	enc, cor, dec, payload := buildLinkStages(b, 1)
	b.ReportAllocs()
	b.SetBytes(int64(len(payload)))
	f := new(Frame)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		*f = Frame{Data: payload}
		if err := enc.Process(f); err != nil {
			b.Fatal(err)
		}
		if err := cor.Process(f); err != nil {
			b.Fatal(err)
		}
		if err := dec.Process(f); err != nil {
			b.Fatal(err)
		}
		f.Recycle()
	}
}
