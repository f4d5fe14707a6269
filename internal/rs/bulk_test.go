package rs

import (
	"math/rand"
	"slices"
	"testing"

	"repro/internal/gf"
)

// bulkCodes returns the code shapes the bulk ≡ scalar property tests run
// over: the paper's flagship, the deep-parity CCSDS shape, a shortened
// code, a small-field code and a non-narrow-sense code.
func bulkCodes(t testing.TB) []*Code {
	t.Helper()
	f8 := gf.MustDefault(8)
	f4 := gf.MustDefault(4)
	mk := func(f *gf.Field, n, k, b int) *Code {
		c, err := NewWithFCR(f, n, k, b)
		if err != nil {
			t.Fatalf("NewWithFCR(%d,%d,%d): %v", n, k, b, err)
		}
		return c
	}
	return []*Code{
		mk(f8, 255, 239, 1),
		mk(f8, 255, 223, 1),
		mk(f8, 64, 40, 1),
		mk(f8, 255, 251, 0),
		mk(f4, 15, 9, 1),
		mk(f4, 15, 11, 2),
		mk(gf.MustDefault(10), 50, 30, 1), // scalar kernel tier (m > 8)
	}
}

func bulkRandMsg(rng *rand.Rand, c *Code) []gf.Elem {
	msg := make([]gf.Elem, c.K)
	for i := range msg {
		msg[i] = gf.Elem(rng.Intn(c.F.Order()))
	}
	return msg
}

// bulkCorrupt flips nerr distinct random symbols of cw in place.
func bulkCorrupt(rng *rand.Rand, c *Code, cw []gf.Elem, nerr int) {
	perm := rng.Perm(c.N)
	for _, idx := range perm[:nerr] {
		delta := gf.Elem(1 + rng.Intn(c.F.Order()-1))
		cw[idx] ^= delta
	}
}

// TestEncodeBulkMatchesScalar: the kernel-driven encoder agrees with the
// symbol-at-a-time reference for every code shape.
func TestEncodeBulkMatchesScalar(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, c := range bulkCodes(t) {
		for trial := 0; trial < 50; trial++ {
			msg := bulkRandMsg(rng, c)
			fast, err := c.Encode(msg)
			if err != nil {
				t.Fatalf("%v: Encode: %v", c, err)
			}
			ref, err := c.encodeScalar(msg)
			if err != nil {
				t.Fatalf("%v: encodeScalar: %v", c, err)
			}
			for i := range ref {
				if fast[i] != ref[i] {
					t.Fatalf("%v trial %d: codeword[%d] = %#x, want %#x", c, trial, i, fast[i], ref[i])
				}
			}
		}
	}
}

// TestEncodeToInPlace: msg may alias dst[:k].
func TestEncodeToInPlace(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for _, c := range bulkCodes(t) {
		msg := bulkRandMsg(rng, c)
		want, err := c.Encode(msg)
		if err != nil {
			t.Fatal(err)
		}
		dst := make([]gf.Elem, c.N)
		copy(dst, msg)
		if _, err := c.EncodeTo(dst, dst[:c.K]); err != nil {
			t.Fatalf("%v: in-place EncodeTo: %v", c, err)
		}
		for i := range want {
			if dst[i] != want[i] {
				t.Fatalf("%v: in-place codeword[%d] = %#x, want %#x", c, i, dst[i], want[i])
			}
		}
	}
}

// TestSyndromesBulkMatchesScalar: the 4-way batched syndrome kernel
// agrees with the per-syndrome Horner reference.
func TestSyndromesBulkMatchesScalar(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, c := range bulkCodes(t) {
		for trial := 0; trial < 50; trial++ {
			word := make([]gf.Elem, c.N)
			for i := range word {
				word[i] = gf.Elem(rng.Intn(c.F.Order()))
			}
			fast := c.Syndromes(word)
			ref := c.syndromesScalar(word)
			for j := range ref {
				if fast[j] != ref[j] {
					t.Fatalf("%v trial %d: S[%d] = %#x, want %#x", c, trial, j, fast[j], ref[j])
				}
			}
		}
	}
}

// TestDecodeToMatchesDecodeErasures: the allocation-free decode chain
// produces the same corrections, positions and diagnostics as the
// polynomial-object reference path (DecodeErasures with no erasures),
// over error weights 0..t+2 — including the uncorrectable regime, where
// both must reject. On RS(255,239) the weights run to 2t+2 over many
// more trials, so DecodeTo's linearity check faces the reference's
// full re-syndrome check on the words past t that reach it.
func TestDecodeToMatchesDecodeErasures(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for ci, c := range bulkCodes(t) {
		buf := c.NewDecodeBuf()
		trials, maxErr := 60, c.T+2
		if ci == 0 { // RS(255,239)
			trials, maxErr = 3000, 2*c.T+2
		}
		for trial := 0; trial < trials; trial++ {
			msg := bulkRandMsg(rng, c)
			cw, err := c.Encode(msg)
			if err != nil {
				t.Fatal(err)
			}
			nerr := min(rng.Intn(maxErr+1), c.N)
			recv := append([]gf.Elem(nil), cw...)
			bulkCorrupt(rng, c, recv, nerr)

			got, gotErr := c.DecodeTo(buf, recv)
			want, wantErr := c.DecodeErasures(recv, nil)
			if (gotErr == nil) != (wantErr == nil) {
				t.Fatalf("%v trial %d (%d errs): DecodeTo err=%v, reference err=%v", c, trial, nerr, gotErr, wantErr)
			}
			if gotErr != nil {
				if gotErr.Error() != wantErr.Error() {
					t.Fatalf("%v trial %d: error text %q vs %q", c, trial, gotErr, wantErr)
				}
				continue
			}
			if got.NumErrors != want.NumErrors {
				t.Fatalf("%v trial %d: NumErrors %d vs %d", c, trial, got.NumErrors, want.NumErrors)
			}
			for i := range want.Corrected {
				if got.Corrected[i] != want.Corrected[i] {
					t.Fatalf("%v trial %d: Corrected[%d] mismatch", c, trial, i)
				}
			}
			if len(got.Positions) != len(want.Positions) {
				t.Fatalf("%v trial %d: positions %v vs %v", c, trial, got.Positions, want.Positions)
			}
			for i := range want.Positions {
				if got.Positions[i] != want.Positions[i] {
					t.Fatalf("%v trial %d: positions %v vs %v", c, trial, got.Positions, want.Positions)
				}
			}
			for j := range want.Syndromes {
				if got.Syndromes[j] != want.Syndromes[j] {
					t.Fatalf("%v trial %d: syndromes differ at %d", c, trial, j)
				}
			}
			if nerr <= c.T {
				for i := range msg {
					if got.Message[i] != msg[i] {
						t.Fatalf("%v trial %d: message not recovered at %d", c, trial, i)
					}
				}
			}
		}
	}
}

// TestRemainderSyndromes: the syndromes DecodeTo takes from the
// encoder's remainder equal the symbol-at-a-time reference on every code
// shape (shortened, first root b = 0 and 2, nibble field, and the m > 8
// scalar route), for codewords, corrupted codewords and random words;
// the clean report is exactly "all syndromes zero".
func TestRemainderSyndromes(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	for _, c := range bulkCodes(t) {
		dst, rem := make([]gf.Elem, 2*c.T), make([]gf.Elem, c.N-c.K)
		for trial := 0; trial < 60; trial++ {
			recv, err := c.Encode(bulkRandMsg(rng, c))
			if err != nil {
				t.Fatal(err)
			}
			switch trial % 3 {
			case 1:
				bulkCorrupt(rng, c, recv, 1+rng.Intn(2*c.T))
			case 2:
				for i := range recv {
					recv[i] = gf.Elem(rng.Intn(c.F.Order()))
				}
			}
			want := c.syndromesScalar(recv)
			dirty := c.remainderSyndromes(dst, rem, recv)
			if dirty == AllZero(want) {
				t.Fatalf("%v trial %d: remainderSyndromes reports dirty=%v, reference syndromes %v", c, trial, dirty, want)
			}
			for j := range want {
				if dst[j] != want[j] {
					t.Fatalf("%v trial %d: S_%d = %#x, reference %#x", c, trial, j, dst[j], want[j])
				}
			}
		}
	}
}

// TestErrorsCancelMatchesResyndrome: DecodeTo's linearity check agrees
// with the full re-syndrome check it replaces — adding the candidate
// errors to the word must give all-zero syndromes — for the true error
// pattern (accept), and for candidates with one value or one position
// wrong or one error missing (reject), on every code shape. Random words
// past t almost never reach the check inside DecodeTo (the Chien root
// count rejects them first), so this drives it directly.
func TestErrorsCancelMatchesResyndrome(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for _, c := range bulkCodes(t) {
		chk := make([]gf.Elem, 2*c.T)
		for trial := 0; trial < 40; trial++ {
			recv, err := c.Encode(bulkRandMsg(rng, c))
			if err != nil {
				t.Fatal(err)
			}
			nerr := 1 + rng.Intn(c.T)
			positions := rng.Perm(c.N)[:nerr]
			vals := make([]gf.Elem, nerr)
			for i, idx := range positions {
				vals[i] = gf.Elem(1 + rng.Intn(c.F.Order()-1))
				recv[idx] ^= vals[i]
			}
			synd := c.syndromesScalar(recv)
			moved := slices.Clone(positions)
			moved[0] = (moved[0] + 1 + rng.Intn(c.N-1)) % c.N
			wrong := slices.Clone(vals)
			wrong[0] ^= 1
			for _, cand := range []struct {
				name string
				pos  []int
				v    []gf.Elem
			}{
				{"true", positions, vals},
				{"wrong value", positions, wrong},
				{"wrong place", moved, vals},
				{"missing error", positions[1:], vals[1:]},
			} {
				name, pos, v := cand.name, cand.pos, cand.v
				fixed := slices.Clone(recv)
				for i, idx := range pos {
					fixed[idx] ^= v[i]
				}
				want := AllZero(c.syndromesScalar(fixed))
				if got := c.errorsCancel(chk, synd, pos, v); got != want {
					t.Fatalf("%v trial %d, %s candidate: linearity check %v, re-syndrome check %v", c, trial, name, got, want)
				}
				if name == "true" && !want {
					t.Fatalf("%v trial %d: true errors left nonzero syndromes", c, trial)
				}
			}
		}
	}
}

// TestDecodeToZeroAlloc pins the acceptance criterion: the steady-state
// encode → corrupt → decode chain with reused buffers performs zero
// allocations per operation.
func TestDecodeToZeroAlloc(t *testing.T) {
	c := Must(gf.MustDefault(8), 255, 223)
	rng := rand.New(rand.NewSource(5))
	msg := bulkRandMsg(rng, c)
	cw := make([]gf.Elem, c.N)
	if _, err := c.EncodeTo(cw, msg); err != nil {
		t.Fatal(err)
	}
	recv := append([]gf.Elem(nil), cw...)
	bulkCorrupt(rng, c, recv, c.T)
	buf := c.NewDecodeBuf()
	if allocs := testing.AllocsPerRun(20, func() {
		if _, err := c.EncodeTo(cw, msg); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Errorf("EncodeTo: %v allocs/op, want 0", allocs)
	}
	if allocs := testing.AllocsPerRun(20, func() {
		res, err := c.DecodeTo(buf, recv)
		if err != nil || res.NumErrors != c.T {
			t.Fatalf("decode: %v (errs=%d)", err, res.NumErrors)
		}
	}); allocs != 0 {
		t.Errorf("DecodeTo: %v allocs/op, want 0", allocs)
	}

	iv, _ := NewInterleaved(c, 4)
	fmsg := make([]gf.Elem, iv.FrameK())
	for i := range fmsg {
		fmsg[i] = gf.Elem(rng.Intn(256))
	}
	frame := make([]gf.Elem, iv.FrameN())
	fb := iv.NewFrameBuf()
	if _, err := iv.EncodeTo(frame, fmsg, fb); err != nil {
		t.Fatal(err)
	}
	out := make([]gf.Elem, iv.FrameK())
	if allocs := testing.AllocsPerRun(20, func() {
		if _, err := iv.EncodeTo(frame, fmsg, fb); err != nil {
			t.Fatal(err)
		}
		if _, err := iv.DecodeWithStatsTo(out, frame, fb); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Errorf("interleaved EncodeTo+DecodeWithStatsTo: %v allocs/op, want 0", allocs)
	}
	for i := range fmsg {
		if out[i] != fmsg[i] {
			t.Fatalf("frame roundtrip mismatch at %d", i)
		}
	}
}

// TestFrameBufReuseAcrossOutcomes: one FrameBuf must stay correct when a
// failed decode is followed by clean ones (stale scratch must not leak).
func TestFrameBufReuseAcrossOutcomes(t *testing.T) {
	c := Must(gf.MustDefault(8), 255, 239)
	iv, _ := NewInterleaved(c, 3)
	rng := rand.New(rand.NewSource(6))
	fb := iv.NewFrameBuf()
	msg := make([]gf.Elem, iv.FrameK())
	for i := range msg {
		msg[i] = gf.Elem(rng.Intn(256))
	}
	frame, err := iv.Encode(msg)
	if err != nil {
		t.Fatal(err)
	}
	// Destroy codeword 1 beyond repair.
	bad := append([]gf.Elem(nil), frame...)
	for j := 0; j < c.N; j++ {
		if j%2 == 0 {
			bad[j*iv.Depth+1] ^= 0x5a
		}
	}
	out := make([]gf.Elem, iv.FrameK())
	st, err := iv.DecodeWithStatsTo(out, bad, fb)
	if err == nil {
		t.Fatal("expected decode failure for destroyed codeword")
	}
	if st.Failed != 1 || st.PerCodeword[1] != -1 || st.Max != c.T+1 {
		t.Fatalf("stats after failure: %+v", st)
	}
	// Clean frame through the same buffer must fully recover.
	st, err = iv.DecodeWithStatsTo(out, frame, fb)
	if err != nil {
		t.Fatalf("clean frame after failed frame: %v", err)
	}
	if st.Failed != 0 || st.Total != 0 {
		t.Fatalf("stats after clean frame: %+v", st)
	}
	for i := range msg {
		if out[i] != msg[i] {
			t.Fatalf("message mismatch at %d after buffer reuse", i)
		}
	}
}

func benchCode(b *testing.B, n, k int) (*Code, []gf.Elem, []gf.Elem) {
	b.Helper()
	c := Must(gf.MustDefault(8), n, k)
	rng := rand.New(rand.NewSource(7))
	msg := bulkRandMsg(rng, c)
	cw, err := c.Encode(msg)
	if err != nil {
		b.Fatal(err)
	}
	return c, msg, cw
}

func BenchmarkEncode255_223Bulk(b *testing.B) {
	c, msg, _ := benchCode(b, 255, 223)
	dst := make([]gf.Elem, c.N)
	b.SetBytes(int64(c.K))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.EncodeTo(dst, msg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkEncode255_223Scalar(b *testing.B) {
	c, msg, _ := benchCode(b, 255, 223)
	b.SetBytes(int64(c.K))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.encodeScalar(msg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSyndromes255_223Bulk(b *testing.B) {
	c, _, cw := benchCode(b, 255, 223)
	dst := make([]gf.Elem, 2*c.T)
	b.SetBytes(int64(c.N))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.SyndromesTo(dst, cw)
	}
}

func BenchmarkSyndromes255_223Scalar(b *testing.B) {
	c, _, cw := benchCode(b, 255, 223)
	b.SetBytes(int64(c.N))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = c.syndromesScalar(cw)
	}
}

func BenchmarkDecodeTo255_223_16errors(b *testing.B) {
	c, _, cw := benchCode(b, 255, 223)
	rng := rand.New(rand.NewSource(8))
	recv := append([]gf.Elem(nil), cw...)
	bulkCorrupt(rng, c, recv, c.T)
	buf := c.NewDecodeBuf()
	b.SetBytes(int64(c.N))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.DecodeTo(buf, recv); err != nil {
			b.Fatal(err)
		}
	}
}
