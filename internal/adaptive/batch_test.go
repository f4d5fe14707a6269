package adaptive

import (
	"bytes"
	"math/rand"
	"testing"

	"repro/internal/gf"
	"repro/internal/pipeline"
)

// TestEpochSwitchMidBatch: batched frames tagged with different epochs
// may be in flight together while the controller switches rungs; each
// frame (and every codeword inside it) must encode and decode under its
// own epoch's code, including frames submitted under the old epoch after
// the switch happened.
func TestEpochSwitchMidBatch(t *testing.T) {
	ladder, err := NewLadder(gf.MustDefault(8), 255, []int{239, 191}, 2)
	if err != nil {
		t.Fatal(err)
	}
	ctrl, err := NewController(ladder, 0, Config{})
	if err != nil {
		t.Fatal(err)
	}
	enc, err := NewEncodeStage(ctrl)
	if err != nil {
		t.Fatal(err)
	}
	dec, err := NewDecodeStage(ctrl)
	if err != nil {
		t.Fatal(err)
	}
	pl, err := pipeline.New(pipeline.Config{Workers: 2, Queue: 4}, enc, dec)
	if err != nil {
		t.Fatal(err)
	}
	got := make([]*pipeline.Frame, 4)
	r := pl.Start(func(f *pipeline.Frame) { got[f.Seq] = f })

	const batch = 3
	rng := rand.New(rand.NewSource(31))
	payload := func(epoch, units int) []byte {
		rung, err := ctrl.RungFor(epoch)
		if err != nil {
			t.Fatal(err)
		}
		b := make([]byte, units*rung.IV.FrameK())
		rng.Read(b)
		return b
	}

	epoch0 := ctrl.CurrentEpoch()
	p0 := payload(epoch0, batch)
	// Force a rung switch while nothing has drained yet.
	ctrl.Observe(Feedback{Seq: 0, Epoch: epoch0, Failed: true})
	epoch1 := ctrl.CurrentEpoch()
	if epoch1 == epoch0 {
		t.Fatal("controller did not switch epochs")
	}
	p1 := payload(epoch1, batch)
	// A straggler still batched under the old epoch, plus a partial batch
	// under the new one: both must resolve their own rung.
	p2 := payload(epoch0, batch)
	p3 := payload(epoch1, 1)

	r.SubmitTagged(p0, epoch0)
	r.SubmitTagged(p1, epoch1)
	r.SubmitTagged(p2, epoch0)
	r.SubmitTagged(p3, epoch1)
	r.Close()
	r.Wait()
	want := [][]byte{p0, p1, p2, p3}
	wantWidth := []int{batch * 2, batch * 2, batch * 2, 1 * 2} // ×interleave depth
	for i, f := range got {
		if f == nil {
			t.Fatalf("frame %d never delivered", i)
		}
		if f.Err != nil {
			t.Fatalf("frame %d (epoch %d) failed: %v", f.Seq, f.Epoch, f.Err)
		}
		if !bytes.Equal(f.Data, want[i]) {
			t.Errorf("frame %d decoded wrong bytes for its epoch", f.Seq)
		}
		if f.Width != wantWidth[i] {
			t.Errorf("frame %d Width = %d, want %d", f.Seq, f.Width, wantWidth[i])
		}
	}
}
