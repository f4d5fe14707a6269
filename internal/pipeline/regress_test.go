package pipeline

import (
	"bytes"
	"testing"

	"repro/internal/channel"
)

// The Hist bucket-boundary and quantile regressions moved to
// internal/perf/hist_test.go with the type.

// TestSubmitTaggedEpoch: the epoch tag must ride the frame through the
// pipeline unchanged, and plain Submit means epoch 0.
func TestSubmitTaggedEpoch(t *testing.T) {
	epochs := make([]int, 3)
	r := Must(Config{Workers: 2, Queue: 4}, idStage()).Start(func(f *Frame) { epochs[f.Seq] = f.Epoch })
	r.SubmitTagged([]byte{0}, 7)
	r.Submit([]byte{1})
	r.SubmitTagged([]byte{2}, 9)
	r.Close()
	r.Wait()
	if epochs[0] != 7 || epochs[1] != 0 || epochs[2] != 9 {
		t.Fatalf("epochs by Seq %v, want [7 0 9]", epochs)
	}
}

// TestCorruptTVWorkerIndependence: schedule-driven corruption is keyed
// on Frame.Seq, so the corrupted bytes must be identical for any worker
// count — unlike Corrupt, whose streams are per worker.
func TestCorruptTVWorkerIndependence(t *testing.T) {
	tv, err := channel.NewTimeVarying([]channel.Episode{
		{Frames: 16, StartEbN0: 2, EndEbN0: 2},
		{Frames: 16, StartEbN0: 2, EndEbN0: 0, Burst: true},
	}, 99)
	if err != nil {
		t.Fatal(err)
	}
	corrupted := func(workers int) [][]byte {
		stage, err := NewCorruptTV(tv, 8)
		if err != nil {
			t.Fatal(err)
		}
		pl := Must(Config{Workers: workers, Queue: 32}, stage)
		frames, err := pl.Drain(randPayloads(t, 32, 64, 5))
		if err != nil {
			t.Fatal(err)
		}
		out := make([][]byte, len(frames))
		for i, f := range frames {
			out[i] = f.Data
		}
		return out
	}
	a := corrupted(1)
	b := corrupted(4)
	for i := range a {
		if !bytes.Equal(a[i], b[i]) {
			t.Fatalf("frame %d corrupted differently with 1 vs 4 workers", i)
		}
	}
}
