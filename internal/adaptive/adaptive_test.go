package adaptive

import (
	"bytes"
	"math/rand"
	"reflect"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/channel"
	"repro/internal/gf"
	"repro/internal/pipeline"
)

func testLadder(t *testing.T) *Ladder {
	t.Helper()
	l, err := NewLadder(gf.MustDefault(8), 255, []int{251, 239, 223, 191, 127}, 4)
	if err != nil {
		t.Fatal(err)
	}
	return l
}

func TestLadderValidation(t *testing.T) {
	f := gf.MustDefault(8)
	if _, err := NewLadder(f, 255, []int{239}, 1); err == nil {
		t.Error("single-rung ladder accepted")
	}
	if _, err := NewLadder(f, 255, []int{223, 239}, 1); err == nil {
		t.Error("increasing ks accepted")
	}
	if _, err := NewLadder(f, 255, []int{239, 238}, 1); err == nil {
		t.Error("odd n-k accepted")
	}
	l, err := NewLadder(f, 255, []int{251, 127}, 2)
	if err != nil {
		t.Fatal(err)
	}
	if l.Len() != 2 || l.Rung(1).Code.T != 64 || l.Depth() != 2 {
		t.Errorf("ladder %s misbuilt", l)
	}
}

func TestControllerStepDownOnFailure(t *testing.T) {
	ctrl, err := NewController(testLadder(t), 0, Config{})
	if err != nil {
		t.Fatal(err)
	}
	ctrl.Observe(Feedback{Seq: 0, Epoch: 0, Failed: true})
	if got := ctrl.CurrentEpoch(); got != 1 {
		t.Fatalf("epoch %d after failure, want 1", got)
	}
	if got := ctrl.RungIndexFor(1); got != 1 {
		t.Fatalf("rung %d after failure, want 1", got)
	}
	tr := ctrl.Transitions()
	if len(tr) != 1 || tr[0].Reason != "failure" || tr[0].From != 0 || tr[0].To != 1 {
		t.Fatalf("transitions %v", tr)
	}
}

func TestControllerStepDownOnMargin(t *testing.T) {
	ctrl, err := NewController(testLadder(t), 1, Config{}) // t=8, down at ceil(0.75*8)=6
	if err != nil {
		t.Fatal(err)
	}
	ctrl.Observe(Feedback{Seq: 0, Epoch: 0, CorrectedMax: 5})
	if ctrl.CurrentEpoch() != 0 {
		t.Fatal("stepped down below the margin threshold")
	}
	ctrl.Observe(Feedback{Seq: 1, Epoch: 0, CorrectedMax: 6})
	if ctrl.CurrentEpoch() != 1 || ctrl.RungIndexFor(1) != 2 {
		t.Fatal("did not step down at the margin threshold")
	}
}

func TestControllerBottomRungHolds(t *testing.T) {
	l := testLadder(t)
	ctrl, err := NewController(l, l.Len()-1, Config{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		ctrl.Observe(Feedback{Seq: uint64(i), Epoch: 0, Failed: true})
	}
	if len(ctrl.Transitions()) != 0 {
		t.Error("stepped below the strongest rung")
	}
}

// TestControllerHysteresis: relaxing requires StepUpAfter consecutive
// frames that would also be comfortable under the next weaker code, and
// any non-clean frame resets the streak.
func TestControllerHysteresis(t *testing.T) {
	ctrl, err := NewController(testLadder(t), 2, Config{StepUpAfter: 5})
	if err != nil {
		t.Fatal(err)
	}
	// Next weaker rung has t=8: clean means <= floor(0.25*8) = 2.
	seq := uint64(0)
	obs := func(max int) {
		ctrl.Observe(Feedback{Seq: seq, Epoch: ctrl.CurrentEpoch(), CorrectedMax: max})
		seq++
	}
	for i := 0; i < 4; i++ {
		obs(1)
	}
	obs(3) // not clean for the target code: streak resets
	for i := 0; i < 4; i++ {
		obs(2)
	}
	if len(ctrl.Transitions()) != 0 {
		t.Fatal("stepped up before a full clean streak")
	}
	obs(0) // 5th consecutive clean frame
	tr := ctrl.Transitions()
	if len(tr) != 1 || tr[0].Reason != "clean-streak" || tr[0].To != 1 {
		t.Fatalf("transitions %v, want one clean-streak step to rung 1", tr)
	}
}

// TestControllerIgnoresStaleEpochs: feedback from frames encoded under
// an epoch the controller already left must not drive decisions —
// otherwise one bad burst would cascade the controller all the way down
// while its in-flight frames drain.
func TestControllerIgnoresStaleEpochs(t *testing.T) {
	ctrl, err := NewController(testLadder(t), 0, Config{})
	if err != nil {
		t.Fatal(err)
	}
	ctrl.Observe(Feedback{Seq: 0, Epoch: 0, Failed: true}) // -> epoch 1
	for i := 1; i < 20; i++ {
		ctrl.Observe(Feedback{Seq: uint64(i), Epoch: 0, Failed: true}) // stale
	}
	if got := ctrl.RungIndexFor(ctrl.CurrentEpoch()); got != 1 {
		t.Fatalf("stale failures walked the ladder to rung %d", got)
	}
}

func TestControllerValidation(t *testing.T) {
	l := testLadder(t)
	if _, err := NewController(l, -1, Config{}); err == nil {
		t.Error("negative start rung accepted")
	}
	if _, err := NewController(l, l.Len(), Config{}); err == nil {
		t.Error("out-of-range start rung accepted")
	}
	ctrl, _ := NewController(l, 0, Config{})
	if _, err := ctrl.RungFor(3); err == nil {
		t.Error("unknown epoch accepted")
	}
}

// closedLoop runs the full adaptive link over a drifting bursty channel,
// with any extra stages after the decoder, and returns the transitions
// and epoch stats. OnFrame must see every frame in Seq order.
func closedLoop(t *testing.T, workers, queue, window int, seed int64, extra ...pipeline.Stage) ([]Transition, []EpochStats) {
	t.Helper()
	tv, err := channel.NewTimeVarying([]channel.Episode{
		{Frames: 60, StartEbN0: 8, EndEbN0: 8},
		{Frames: 120, StartEbN0: 8, EndEbN0: 4, Burst: true},
		{Frames: 120, StartEbN0: 4, EndEbN0: 8},
	}, seed)
	if err != nil {
		t.Fatal(err)
	}
	ladder, err := NewLadder(gf.MustDefault(8), 255, []int{251, 239, 223, 191, 127}, 2)
	if err != nil {
		t.Fatal(err)
	}
	ctrl, err := NewController(ladder, 0, Config{StepUpAfter: 16})
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
	corrupt, err := pipeline.NewCorruptTV(tv, 8)
	if err != nil {
		t.Fatal(err)
	}
	pl, err := pipeline.New(pipeline.Config{Workers: workers, Queue: queue},
		append([]pipeline.Stage{enc, corrupt, dec}, extra...)...)
	if err != nil {
		t.Fatal(err)
	}
	pending := map[uint64][]byte{}
	var next uint64
	drv := &Driver{
		Ctrl:   ctrl,
		Window: window,
		Payload: func(seq uint64, size int) []byte {
			rng := rand.New(rand.NewSource(seed + int64(seq)))
			b := make([]byte, size)
			rng.Read(b)
			pending[seq] = b
			return b
		},
		OnFrame: func(f *pipeline.Frame) {
			if f.Seq != next {
				t.Errorf("OnFrame saw seq %d, want %d", f.Seq, next)
			}
			next = f.Seq + 1
			want := pending[f.Seq]
			delete(pending, f.Seq)
			if f.Err == nil && !bytes.Equal(f.Data, want) {
				t.Errorf("frame %d delivered wrong bytes", f.Seq)
			}
		},
	}
	epochs, err := drv.Run(pl, tv.TotalFrames())
	if err != nil {
		t.Fatal(err)
	}
	if len(pending) != 0 {
		t.Errorf("%d frames never delivered", len(pending))
	}
	return ctrl.Transitions(), epochs
}

// TestClosedLoopAdaptsAndRecovers: over a degrade-then-recover schedule
// the controller must step down the ladder during the degraded episode
// and relax back afterwards.
func TestClosedLoopAdaptsAndRecovers(t *testing.T) {
	transitions, epochs := closedLoop(t, 2, 8, 8, 11)
	var downs, ups int
	for _, tr := range transitions {
		if tr.To > tr.From {
			downs++
		} else {
			ups++
		}
	}
	if downs == 0 || ups == 0 {
		t.Fatalf("trajectory %v: want both down and up transitions", transitions)
	}
	total := 0
	for _, e := range epochs {
		total += e.Frames
	}
	if total != 300 {
		t.Errorf("epoch stats cover %d frames, want 300", total)
	}
	for _, e := range epochs {
		if e.Frames > 0 && e.Goodput() > float64(ladderRateUpper(t)) {
			t.Errorf("epoch %d goodput %v exceeds max code rate", e.Epoch, e.Goodput())
		}
	}
}

func ladderRateUpper(t *testing.T) float64 {
	t.Helper()
	return 251.0 / 255.0
}

// TestClosedLoopDeterminism: same seed + same schedule + same window
// must yield the identical rate trajectory and epoch stats — regardless
// of worker count, since corruption is keyed on Frame.Seq and feedback
// is consumed in delivery order. Run under -race in CI.
func TestClosedLoopDeterminism(t *testing.T) {
	tr1, ep1 := closedLoop(t, 1, 8, 8, 11)
	tr2, ep2 := closedLoop(t, 4, 8, 8, 11)
	tr3, ep3 := closedLoop(t, 2, 8, 8, 11)
	if !reflect.DeepEqual(tr1, tr2) || !reflect.DeepEqual(tr1, tr3) {
		t.Fatalf("trajectories diverged across worker counts:\n1: %v\n4: %v\n2: %v", tr1, tr2, tr3)
	}
	if !reflect.DeepEqual(ep1, ep2) || !reflect.DeepEqual(ep1, ep3) {
		t.Fatalf("epoch stats diverged across worker counts:\n1: %+v\n4: %+v\n2: %+v", ep1, ep2, ep3)
	}
	if len(tr1) == 0 {
		t.Fatal("determinism test exercised no transitions")
	}
}

// TestDriverWindowClamp: a window larger than the pipeline queue is
// clamped (the no-deadlock bound) and the run still completes.
func TestDriverWindowClamp(t *testing.T) {
	transitions, _ := closedLoop(t, 1, 4, 1000, 11)
	if len(transitions) == 0 {
		t.Error("clamped-window run produced no transitions")
	}
}

// TestDriverRestoresSeqOrder: the pipeline delivers in completion order,
// and the driver must still feed the controller and OnFrame in Seq
// order. An extra last stage holds each even-Seq frame until its odd
// successor has passed, so every pair completes out of order; OnFrame
// must still see Seq 0, 1, 2, … (closedLoop checks), and the rate
// trajectory and epoch stats must equal a one-worker run's. Four
// workers per stage and a window of four give every frame in flight a
// worker of the holding stage, so the holds cannot starve each other.
func TestDriverRestoresSeqOrder(t *testing.T) {
	const frames, window = 300, 4
	passed := make([]chan struct{}, frames)
	for i := range passed {
		passed[i] = make(chan struct{})
	}
	var timeouts atomic.Int32
	hold := pipeline.Func{Label: "hold-even", F: func(f *pipeline.Frame) error {
		if f.Seq%2 == 1 {
			close(passed[f.Seq])
			return nil
		}
		select {
		case <-passed[f.Seq+1]:
		case <-time.After(5 * time.Second):
			timeouts.Add(1)
		}
		return nil
	}}
	tr1, ep1 := closedLoop(t, 1, 8, window, 11)
	tr4, ep4 := closedLoop(t, 4, 8, window, 11, hold)
	if n := timeouts.Load(); n != 0 {
		t.Fatalf("%d even frames waited 5s for their successor", n)
	}
	if !reflect.DeepEqual(tr1, tr4) {
		t.Fatalf("trajectory with out-of-order completion diverged:\n1: %v\n4: %v", tr1, tr4)
	}
	if !reflect.DeepEqual(ep1, ep4) {
		t.Fatalf("epoch stats with out-of-order completion diverged:\n1: %+v\n4: %+v", ep1, ep4)
	}
	if len(tr1) == 0 {
		t.Fatal("driver-order test exercised no transitions")
	}
}
