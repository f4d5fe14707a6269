package pipeline

import (
	"bytes"
	"math/rand"
	"testing"

	"repro/internal/gf"
	"repro/internal/rs"
)

// rsBatchPipeline builds encode -> flip -> decode over RS(255,239) with
// deterministic corruption keyed on the global codeword index, so the
// same codeword stream is corrupted identically no matter how many
// codewords each frame packs.
func rsBatchPipeline(t *testing.T, cfg Config, batch int) *Pipeline {
	t.Helper()
	c := rs.Must(gf.MustDefault(8), 255, 239)
	enc, dec := rsStages(t, c, 1)
	flip := Func{Label: "flip", F: func(f *Frame) error {
		for w := 0; w < len(f.Data)/c.N; w++ {
			cw := f.Data[w*c.N : (w+1)*c.N]
			key := f.Seq*uint64(batch) + uint64(w)
			for i := 0; i < 8; i++ {
				cw[(int(key)%31+i*31)%c.N] ^= byte(1 + (key+uint64(i))%255)
			}
		}
		return nil
	}}
	cfg.Batch = batch
	return Must(cfg, enc, flip, dec)
}

// TestBatchEquivalence: packing codewords into batched frames must be
// bit-exact with submitting them one per frame — same decoded payloads,
// same per-codeword corrections — across worker counts (run under -race
// this also exercises the sharded sink's handoffs).
func TestBatchEquivalence(t *testing.T) {
	const (
		K     = 239
		batch = 4
		n     = 32 // codewords; 8 batched frames
	)
	rng := rand.New(rand.NewSource(11))
	stream := make([]byte, n*K)
	for i := range stream {
		stream[i] = byte(rng.Intn(256))
	}

	run := func(workers, batchSize int) (data []byte, corrected int) {
		t.Helper()
		p := rsBatchPipeline(t, Config{Workers: workers, Queue: 4}, batchSize)
		r := p.Start()
		var payloads [][]byte
		for off := 0; off < len(stream); off += batchSize * K {
			payloads = append(payloads, stream[off:off+batchSize*K])
		}
		frames, err := r.Drain(payloads)
		if err != nil {
			t.Fatal(err)
		}
		for _, f := range frames {
			data = append(data, f.Data...)
			corrected += f.Corrected
		}
		return data, corrected
	}

	wantData, wantCorr := run(1, 1)
	if !bytes.Equal(wantData, stream) {
		t.Fatal("unbatched baseline failed to round-trip")
	}
	for _, workers := range []int{1, 4} {
		got, corr := run(workers, batch)
		if !bytes.Equal(got, wantData) {
			t.Errorf("workers=%d batch=%d: decoded stream differs from unbatched baseline", workers, batch)
		}
		if corr != wantCorr {
			t.Errorf("workers=%d batch=%d: corrected %d symbols, unbatched baseline corrected %d",
				workers, batch, corr, wantCorr)
		}
	}
}

// TestPartialFinalBatch: the engine infers each frame's width from its
// payload, so a submitter whose stream does not divide evenly simply
// sends a final frame with fewer codewords. Width accounting must match
// per frame and in the sink totals.
func TestPartialFinalBatch(t *testing.T) {
	const (
		K     = 239
		batch = 4
	)
	rng := rand.New(rand.NewSource(12))
	stream := make([]byte, (2*batch+3)*K) // 2 full frames + a 3-codeword tail
	for i := range stream {
		stream[i] = byte(rng.Intn(256))
	}
	p := rsBatchPipeline(t, Config{Workers: 2, Queue: 4}, batch)
	r := p.Start()
	var payloads [][]byte
	for off := 0; off < len(stream); off += batch * K {
		end := off + batch*K
		if end > len(stream) {
			end = len(stream)
		}
		payloads = append(payloads, stream[off:end])
	}
	frames, err := r.Drain(payloads)
	if err != nil {
		t.Fatal(err)
	}
	var got []byte
	for _, f := range frames {
		got = append(got, f.Data...)
	}
	if !bytes.Equal(got, stream) {
		t.Fatal("stream with partial final batch failed to round-trip")
	}
	if w := frames[len(frames)-1].Width; w != 3 {
		t.Errorf("final frame Width = %d, want 3", w)
	}
	if cw := p.Sink.Codewords.Load(); cw != 2*batch+3 {
		t.Errorf("Sink.Codewords = %d, want %d", cw, 2*batch+3)
	}
	if fr := p.Sink.Frames.Load(); fr != 3 {
		t.Errorf("Sink.Frames = %d, want 3", fr)
	}
}

// TestBatchLengthValidation: a payload that is not a multiple of the
// codec unit must fail the frame with a clear error instead of
// corrupting the chunk walk.
func TestBatchLengthValidation(t *testing.T) {
	c := rs.Must(gf.MustDefault(8), 255, 239)
	enc, _ := rsStages(t, c, 1)
	p := Must(Config{Workers: 1, Queue: 2}, enc)
	r := p.Start()
	frames, err := r.Drain([][]byte{make([]byte, c.K+1), {}})
	if err == nil {
		t.Fatal("expected ragged/empty payloads to fail")
	}
	for _, f := range frames {
		if f.Err == nil {
			t.Errorf("frame %d (len %d) passed, want length error", f.Seq, len(f.Data))
		}
	}
}
