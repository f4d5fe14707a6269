package pipeline

import (
	"bytes"
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/aes"
	"repro/internal/bch"
	"repro/internal/channel"
	"repro/internal/gf"
	"repro/internal/kernels"
	"repro/internal/rs"
)

// flipStage deterministically corrupts `errs` distinct symbols of each
// frame, derived from the frame's Seq — reproducible with any worker
// count, unlike an RNG channel model.
func flipStage(errs int) Func {
	return Func{Label: fmt.Sprintf("flip(%d)", errs), F: func(f *Frame) error {
		n := len(f.Data)
		if errs > n {
			return fmt.Errorf("flip: %d errors in %d bytes", errs, n)
		}
		stride := n / errs
		for i := 0; i < errs; i++ {
			pos := (int(f.Seq)%stride + i*stride) % n
			f.Data[pos] ^= byte(1 + (f.Seq+uint64(i))%255)
		}
		return nil
	}}
}

func randPayloads(t testing.TB, count, size int, seed int64) [][]byte {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	out := make([][]byte, count)
	for i := range out {
		out[i] = make([]byte, size)
		rng.Read(out[i])
	}
	return out
}

// TestPipelineRSOrderedRoundTrip pushes hundreds of frames through
// encode -> corrupt -> decode with 4 workers per stage on one shared
// rs.Code and checks byte-exact round trips, strict submission-order
// delivery and correction accounting. Run under -race this also
// exercises concurrent Encode/Decode on the shared codec.
func TestPipelineRSOrderedRoundTrip(t *testing.T) {
	code := rs.Must(gf.MustDefault(8), 255, 239)
	enc, dec := rsStages(t, code, 1)
	const frames, errsPerFrame = 300, 8
	p := Must(Config{Workers: 4, Queue: 8}, enc, flipStage(errsPerFrame), dec)
	payloads := randPayloads(t, frames, code.K, 1)

	got, err := p.Start().Drain(payloads)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != frames {
		t.Fatalf("got %d frames, want %d", len(got), frames)
	}
	for i, f := range got {
		if f.Seq != uint64(i) {
			t.Fatalf("frame %d delivered out of order (seq %d)", i, f.Seq)
		}
		if !bytes.Equal(f.Data, payloads[i]) {
			t.Fatalf("frame %d: round trip mismatch", i)
		}
		if f.Corrected != errsPerFrame {
			t.Fatalf("frame %d: corrected %d, want %d", i, f.Corrected, errsPerFrame)
		}
	}
	st := p.Stats()
	if n := st[2].Corrected.Load(); n != frames*errsPerFrame {
		t.Errorf("decode stage corrected %d, want %d", n, frames*errsPerFrame)
	}
	if n := st[0].Frames.Load(); n != frames {
		t.Errorf("encode stage frames %d, want %d", n, frames)
	}
	if in, out := st[0].BytesIn.Load(), st[0].BytesOut.Load(); in != frames*int64(code.K) || out != frames*int64(code.N) {
		t.Errorf("encode bytes in/out = %d/%d, want %d/%d", in, out, frames*code.K, frames*code.N)
	}
	if p.Total.Count() != frames {
		t.Errorf("total latency histogram has %d samples, want %d", p.Total.Count(), frames)
	}
}

// TestPipelineSecureInterleavedLink is the full paper-style link: GCM
// seal -> depth-4 interleaved RS encode -> bursty Gilbert-Elliott
// channel -> interleaved decode -> GCM open, four workers per stage.
func TestPipelineSecureInterleavedLink(t *testing.T) {
	code := rs.Must(gf.MustDefault(8), 255, 223)
	iv, err := rs.NewInterleaved(code, 4)
	if err != nil {
		t.Fatal(err)
	}
	cipher, err := aes.NewCipher(bytes.Repeat([]byte{0x42}, 16))
	if err != nil {
		t.Fatal(err)
	}
	gcm := cipher.NewGCM()
	ge, err := channel.NewGilbertElliott(0.002, 0.2, 1e-4, 0.05, 7)
	if err != nil {
		t.Fatal(err)
	}
	corrupt, err := NewCorrupt(ge, 8, 99)
	if err != nil {
		t.Fatal(err)
	}
	encF, err := NewRSFrameEncode(iv)
	if err != nil {
		t.Fatal(err)
	}
	decF, err := NewRSFrameDecode(iv)
	if err != nil {
		t.Fatal(err)
	}
	aad := []byte("gfpipe-test")
	p := Must(Config{Workers: 4},
		NewSealAEAD(gcm, aad), encF, corrupt, decF, NewOpenAEAD(gcm, aad))

	const frames = 64
	plainLen := iv.FrameK() - 16 // seal adds the 16-byte tag
	payloads := randPayloads(t, frames, plainLen, 2)
	got, err := p.Start().Drain(payloads)
	if err != nil {
		t.Fatal(err)
	}
	for i, f := range got {
		if f.Seq != uint64(i) {
			t.Fatalf("frame %d delivered out of order (seq %d)", i, f.Seq)
		}
		if !bytes.Equal(f.Data, payloads[i]) {
			t.Fatalf("frame %d: secure round trip mismatch", i)
		}
	}
	// The bursty channel at these settings corrupts some symbols across
	// 64 frames with overwhelming probability; the decoder must have
	// actually worked for the GCM tags to verify, so just sanity-check
	// that stats flowed.
	if p.Stats()[3].Frames.Load() != frames {
		t.Errorf("decode stage did not see all frames")
	}
}

// TestPipelineErrorPropagation injects one uncorrectable frame and
// checks that it is delivered with Err set (and FailedAt naming the
// decode stage) in its original position while every other frame
// round-trips.
func TestPipelineErrorPropagation(t *testing.T) {
	code := rs.Must(gf.MustDefault(8), 255, 239)
	enc, dec := rsStages(t, code, 1)
	const bad = 13 // seq to make uncorrectable
	sabotage := Func{Label: "sabotage", F: func(f *Frame) error {
		if f.Seq == bad {
			for i := 0; i < 2*code.T+1; i++ { // beyond any decoder's reach
				f.Data[i*3] ^= byte(0x5a + i)
			}
		} else {
			f.Data[int(f.Seq)%len(f.Data)] ^= 0xff
		}
		return nil
	}}
	p := Must(Config{Workers: 4, Queue: 4}, enc, sabotage, dec)
	const frames = 40
	payloads := randPayloads(t, frames, code.K, 3)
	got, err := p.Start().Drain(payloads)
	if err == nil {
		t.Fatal("expected an error from the sabotaged frame")
	}
	for i, f := range got {
		if f.Seq != uint64(i) {
			t.Fatalf("frame %d delivered out of order (seq %d)", i, f.Seq)
		}
		if i == bad {
			if f.Err == nil {
				t.Fatalf("sabotaged frame %d has no error", i)
			}
			if f.FailedAt != dec.Name() {
				t.Errorf("frame %d failed at %q, want %q", i, f.FailedAt, dec.Name())
			}
			continue
		}
		if f.Err != nil {
			t.Fatalf("frame %d unexpectedly failed: %v", i, f.Err)
		}
		if !bytes.Equal(f.Data, payloads[i]) {
			t.Fatalf("frame %d: round trip mismatch", i)
		}
	}
	if n := p.Stats()[2].Errors.Load(); n != 1 {
		t.Errorf("decode stage errors = %d, want 1", n)
	}
}

// TestPipelineBackpressure runs with queue depth 1 and a single worker
// per stage — the tightest legal configuration — to verify nothing
// deadlocks and ordering still holds when every channel is contended.
func TestPipelineBackpressure(t *testing.T) {
	code := rs.Must(gf.MustDefault(8), 15, 11)
	enc, dec := rsStages(t, code, 1)
	p := Must(Config{Workers: 1, Queue: 1}, enc, flipStage(2), dec)
	const frames = 200
	payloads := randPayloads(t, frames, code.K, 4)
	got, err := p.Start().Drain(payloads)
	if err != nil {
		t.Fatal(err)
	}
	for i, f := range got {
		if f.Seq != uint64(i) || !bytes.Equal(f.Data, payloads[i]) {
			t.Fatalf("frame %d wrong under backpressure", i)
		}
	}
}

// TestPipelineConcurrentSubmit drives Submit from several goroutines:
// sequence numbers must come back dense and in increasing delivery
// order even though submitters race.
func TestPipelineConcurrentSubmit(t *testing.T) {
	p := Must(Config{Workers: 4, Queue: 4}, Func{Label: "ident", F: func(f *Frame) error { return nil }})
	r := p.Start()
	const submitters, perSubmitter = 4, 50
	var wg sync.WaitGroup
	wg.Add(submitters)
	for s := 0; s < submitters; s++ {
		go func() {
			defer wg.Done()
			for i := 0; i < perSubmitter; i++ {
				r.Submit([]byte{byte(i)})
			}
		}()
	}
	go func() { wg.Wait(); r.Close() }()
	var want uint64
	for f := range r.Out() {
		if f.Seq != want {
			t.Fatalf("delivery seq %d, want %d", f.Seq, want)
		}
		want++
	}
	if want != submitters*perSubmitter {
		t.Fatalf("delivered %d frames, want %d", want, submitters*perSubmitter)
	}
	r.Wait() // must not hang after Out is drained
}

// TestPipelineBCHRoundTrip runs the bit-oriented BCH(31,11,5) codec
// through a forked BSC at m=1 with 4 workers.
func TestPipelineBCHRoundTrip(t *testing.T) {
	code := bch.Must(gf.MustDefault(5), 5)
	bsc, err := channel.NewBSC(0.02, 11)
	if err != nil {
		t.Fatal(err)
	}
	corrupt, err := NewCorrupt(bsc, 1, 5)
	if err != nil {
		t.Fatal(err)
	}
	p := Must(Config{Workers: 4}, NewBCHEncode(code), corrupt, NewBCHDecode(code))
	const frames = 400
	rng := rand.New(rand.NewSource(6))
	payloads := make([][]byte, frames)
	for i := range payloads {
		payloads[i] = make([]byte, code.K)
		for j := range payloads[i] {
			payloads[i][j] = byte(rng.Intn(2))
		}
	}
	got, err := p.Start().Drain(payloads)
	if err != nil {
		// p=0.02 over 31 bits rarely exceeds t=5 errors; tolerate a
		// decode failure only if the pipeline reported it on the frame.
		t.Logf("tolerating channel overload: %v", err)
	}
	for i, f := range got {
		if f.Seq != uint64(i) {
			t.Fatalf("frame %d delivered out of order (seq %d)", i, f.Seq)
		}
		if f.Err == nil && !bytes.Equal(f.Data, payloads[i]) {
			t.Fatalf("frame %d: BCH round trip mismatch", i)
		}
	}
}

// TestMeteredRSDecodeCounts checks the metered decode stage corrects
// like the reference decoder while accumulating GF-processor cycle
// accounting in the stage stats.
func TestMeteredRSDecodeCounts(t *testing.T) {
	code := rs.Must(gf.MustDefault(8), 255, 239)
	enc, _ := rsStages(t, code, 1)
	dec, err := NewMeteredRSDecode(code, kernels.GFProc)
	if err != nil {
		t.Fatal(err)
	}
	p := Must(Config{Workers: 4}, enc, flipStage(5), dec)
	const frames = 50
	payloads := randPayloads(t, frames, code.K, 8)
	got, err := p.Start().Drain(payloads)
	if err != nil {
		t.Fatal(err)
	}
	for i, f := range got {
		if !bytes.Equal(f.Data, payloads[i]) {
			t.Fatalf("frame %d: metered round trip mismatch", i)
		}
		if f.Counts.GFOp == 0 {
			t.Fatalf("frame %d: no GF ops metered", i)
		}
	}
	counts := p.Stats()[2].Counts()
	if counts.GFOp == 0 || counts.Total() == 0 {
		t.Fatalf("stage counts not accumulated: %+v", counts)
	}
	if cyc := counts.Cycles(kernels.GFProc.Profile()); cyc <= 0 {
		t.Fatalf("nonpositive cycle total %d", cyc)
	}
}

// TestCorruptForkDeterminism: the same prototype, seed and worker index
// must reproduce the same corruption; different worker indices must
// diverge.
func TestCorruptForkDeterminism(t *testing.T) {
	bsc, _ := channel.NewBSC(0.05, 1)
	mk := func() *Corrupt {
		c, err := NewCorrupt(bsc, 8, 42)
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	payload := func() *Frame { return &Frame{Data: bytes.Repeat([]byte{0xA5}, 512)} }

	a0 := mk().ForWorker(0)
	b0 := mk().ForWorker(0)
	c1 := mk().ForWorker(1)
	fa, fb, fc := payload(), payload(), payload()
	for _, st := range []struct {
		s Stage
		f *Frame
	}{{a0, fa}, {b0, fb}, {c1, fc}} {
		if err := st.s.Process(st.f); err != nil {
			t.Fatal(err)
		}
	}
	if !bytes.Equal(fa.Data, fb.Data) {
		t.Error("same worker index not deterministic")
	}
	if bytes.Equal(fa.Data, fc.Data) {
		t.Error("different worker indices produced identical corruption")
	}
}

// TestHistQuantiles sanity-checks the power-of-two histogram.
func TestHistQuantiles(t *testing.T) {
	var h Hist
	for i := 1; i <= 1000; i++ {
		h.Observe(1000) // 1µs
	}
	h.Observe(1 << 30) // one ~1s outlier
	if h.Count() != 1001 {
		t.Fatalf("count %d", h.Count())
	}
	if q := h.Quantile(0.5); q < 1000 || q > 2048 {
		t.Errorf("p50 %v outside the 1µs bucket", q)
	}
	if q := h.Quantile(0.9999); q < 1<<30 {
		t.Errorf("p99.99 %v missed the outlier", q)
	}
	if h.Max() != 1<<30 {
		t.Errorf("max %v", h.Max())
	}
}

func TestConfigValidation(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Error("empty pipeline accepted")
	}
	if _, err := New(Config{}, nil); err == nil {
		t.Error("nil stage accepted")
	}
	p := Must(Config{}, Func{Label: "x", F: func(*Frame) error { return nil }})
	if p.Config().Workers < 1 || p.Config().Queue < 1 {
		t.Errorf("defaults not applied: %+v", p.Config())
	}
}
