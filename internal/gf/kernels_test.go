package gf

import (
	"math/rand"
	"sync"
	"testing"
)

// kernelFields returns every default field m = 2..8 plus the
// non-primitive AES field: the full set the table tiers support.
func kernelFields(t testing.TB) []*Field {
	var fs []*Field
	for m := 2; m <= 8; m++ {
		fs = append(fs, MustDefault(m))
	}
	fs = append(fs, AES())
	return fs
}

func randElems(rng *rand.Rand, f *Field, n int) []Elem {
	out := make([]Elem, n)
	for i := range out {
		out[i] = Elem(rng.Intn(f.Order()))
	}
	return out
}

// TestKernelsTierSelection pins the tier choice: table for m <= 8,
// scalar above.
func TestKernelsTierSelection(t *testing.T) {
	for m := 2; m <= 8; m++ {
		f := MustDefault(m)
		k := f.Kernels()
		if !k.Table() {
			t.Errorf("m=%d: table tier expected", m)
		}
		if f.ScalarKernels().Table() {
			t.Errorf("m=%d: scalar kernels report table tier", m)
		}
		if k != f.Kernels() {
			t.Errorf("m=%d: Kernels not cached", m)
		}
	}
	wide := MustDefault(12)
	if wide.Kernels().Table() {
		t.Error("m=12: expected scalar fallback")
	}
	if wide.Kernels().Field() != wide {
		t.Error("Field() mismatch")
	}
}

// TestKernelsMulConstExhaustive checks the table product tier
// against Field.Mul over every (c, x) pair for every supported field —
// exhaustive, since the whole product table is only 2^16 entries even at
// m = 8.
func TestKernelsMulConstExhaustive(t *testing.T) {
	for _, f := range kernelFields(t) {
		k := f.Kernels()
		src := make([]Elem, f.Order())
		for x := range src {
			src[x] = Elem(x)
		}
		dst := make([]Elem, f.Order())
		acc := make([]Elem, f.Order())
		for c := 0; c < f.Order(); c++ {
			k.MulConstSlice(dst, src, Elem(c))
			for x := range src {
				if want := f.Mul(Elem(c), Elem(x)); dst[x] != want {
					t.Fatalf("%v: MulConstSlice %#x*%#x = %#x, want %#x", f, c, x, dst[x], want)
				}
			}
			for i := range acc {
				acc[i] = Elem(i % f.Order())
			}
			k.MulConstAddSlice(acc, src, Elem(c))
			for x := range src {
				if want := Elem(x%f.Order()) ^ f.Mul(Elem(c), Elem(x)); acc[x] != want {
					t.Fatalf("%v: MulConstAddSlice %#x at %#x = %#x, want %#x", f, c, x, acc[x], want)
				}
			}
		}
	}
}

// TestKernelsBulkMatchesScalar is the tentpole property test: every bulk
// operation on the fast kernels agrees with the pure-scalar reference,
// exhaustively over GF(2^4) evaluation points and randomized everywhere
// else, for all default fields m = 2..8 and the AES field.
func TestKernelsBulkMatchesScalar(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for _, f := range kernelFields(t) {
		fast, ref := f.Kernels(), f.ScalarKernels()
		exhaustive := f.M() == 4
		for trial := 0; trial < 32; trial++ {
			n := 1 + rng.Intn(300)
			word := randElems(rng, f, n)
			other := randElems(rng, f, n)

			// Add/Xor.
			d1, d2 := make([]Elem, n), make([]Elem, n)
			fast.AddSlice(d1, word, other)
			ref.AddSlice(d2, word, other)
			assertEq(t, f, "AddSlice", d1, d2)
			copy(d1, word)
			copy(d2, word)
			fast.XorSlice(d1, other)
			ref.XorSlice(d2, other)
			assertEq(t, f, "XorSlice", d1, d2)

			// Dot product.
			if a, b := fast.DotSlice(word, other), ref.DotSlice(word, other); a != b {
				t.Fatalf("%v: DotSlice %#x != %#x", f, a, b)
			}

			// Horner / Eval at every x (exhaustive for GF(2^4), sampled above).
			var points []Elem
			if exhaustive {
				for x := 0; x < f.Order(); x++ {
					points = append(points, Elem(x))
				}
			} else {
				points = randElems(rng, f, 8)
				points = append(points, 0, 1)
			}
			for _, x := range points {
				if a, b := fast.HornerSlice(word, x), ref.HornerSlice(word, x); a != b {
					t.Fatalf("%v: HornerSlice(x=%#x) %#x != %#x", f, x, a, b)
				}
				if a, b := fast.EvalSlice(word, x), ref.EvalSlice(word, x); a != b {
					t.Fatalf("%v: EvalSlice(x=%#x) %#x != %#x", f, x, a, b)
				}
				fast.MulConstSlice(d1, word, x)
				ref.MulConstSlice(d2, word, x)
				assertEq(t, f, "MulConstSlice", d1, d2)
			}

			// Batched syndromes: lengths 1..9 cover the 4-way unroll plus tail.
			for _, np := range []int{1, 3, 4, 5, 8, 9} {
				xs := points
				if len(xs) > np {
					xs = xs[:np]
				}
				s1, s2 := make([]Elem, len(xs)), make([]Elem, len(xs))
				fast.SyndromeSlice(s1, word, xs)
				ref.SyndromeSlice(s2, word, xs)
				assertEq(t, f, "SyndromeSlice", s1, s2)
			}

			// Bit variants over a random 0/1 word.
			bits := make([]byte, n)
			for i := range bits {
				bits[i] = byte(rng.Intn(2))
			}
			for _, x := range points {
				if a, b := fast.HornerBitSlice(bits, x), ref.HornerBitSlice(bits, x); a != b {
					t.Fatalf("%v: HornerBitSlice(x=%#x) %#x != %#x", f, x, a, b)
				}
			}
			s1, s2 := make([]Elem, len(points)), make([]Elem, len(points))
			fast.SyndromeBitSlice(s1, bits, points)
			ref.SyndromeBitSlice(s2, bits, points)
			assertEq(t, f, "SyndromeBitSlice", s1, s2)
		}
	}
}

// TestBitslicedSyndromePointCounts checks the batched syndromes — the
// word-wide SyndromeSlice and the bit-sliced SyndromeBitSlice — at every
// point count 1..9 (the 4-way accumulator unroll plus each tail length)
// on the table tier and on the default dispatch, against the scalar
// reference. m = 16 has no table tier and pins the fallback path.
func TestBitslicedSyndromePointCounts(t *testing.T) {
	for _, m := range []int{4, 8, 16} {
		f := MustDefault(m)
		ref := f.ScalarKernels()
		rng := rand.New(rand.NewSource(int64(100 + m)))
		word := randElems(rng, f, 100)
		bits := make([]byte, len(word))
		for i := range bits {
			bits[i] = byte(rng.Intn(2))
		}
		for _, k := range []*Kernels{f.Kernels(), f.Kernels().forTier(TierTable)} {
			for np := 1; np <= 9; np++ {
				xs := randElems(rng, f, np)
				got, want := make([]Elem, np), make([]Elem, np)
				k.SyndromeSlice(got, word, xs)
				ref.SyndromeSlice(want, word, xs)
				for j := range got {
					if got[j] != want[j] {
						t.Fatalf("m=%d np=%d: SyndromeSlice[%d] = %d, want %d", m, np, j, got[j], want[j])
					}
				}
				k.SyndromeBitSlice(got, bits, xs)
				ref.SyndromeBitSlice(want, bits, xs)
				for j := range got {
					if got[j] != want[j] {
						t.Fatalf("m=%d np=%d: SyndromeBitSlice[%d] = %d, want %d", m, np, j, got[j], want[j])
					}
				}
			}
		}
	}
}

func assertEq(t *testing.T, f *Field, op string, got, want []Elem) {
	t.Helper()
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%v: %s[%d] = %#x, want %#x", f, op, i, got[i], want[i])
		}
	}
}

// TestLFSRMatchesStepwise checks the packed LFSR bank against the
// definitional step (shift, then fold feedback*coeffs), on both the table
// tier and the scalar fallback, including all-zero feedback runs, a
// register that starts nonzero, and tap counts on either side of the
// 8-lane word boundaries (one, two, four and eight words, and the
// general loop in between).
func TestLFSRMatchesStepwise(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	fields := append(kernelFields(t), MustDefault(10))
	for _, f := range fields {
		for _, nk := range []int{1, 2, 3, 4, 5, 7, 8, 9, 15, 16, 17, 31, 32, 33, 64} {
			coeffs := randElems(rng, f, nk)
			l := f.Kernels().NewLFSR(coeffs)
			msg := randElems(rng, f, 43)      // four-symbol strides plus a tail
			copy(msg[10:15], make([]Elem, 5)) // force zero-feedback steps
			par := randElems(rng, f, nk)
			ref := append([]Elem(nil), par...)
			l.Run(par, msg)
			for _, s := range msg {
				fb := s ^ ref[0]
				copy(ref, ref[1:])
				ref[nk-1] = 0
				if fb != 0 {
					for j, g := range coeffs {
						ref[j] ^= f.Mul(fb, g)
					}
				}
			}
			for j := range ref {
				if par[j] != ref[j] {
					t.Fatalf("%v nk=%d: par[%d] = %#x, want %#x", f, nk, j, par[j], ref[j])
				}
			}
		}
	}
}

// TestChienRootsPlanted: ChienRoots finds exactly the planted roots of
// prod (1 - alpha^p x) that lie below the point count, in increasing
// order, on the auto view and the scalar reference, for every degree
// from 1 to past the packed lanes (one to eight words, then the
// row-Horner route), at an odd and an even point count.
func TestChienRootsPlanted(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	fields := append(kernelFields(t), MustDefault(10))
	for _, f := range fields {
		for deg := 1; deg <= min(f.N(), chienMaxLanes+6); deg++ {
			lam, _ := plantedLocator(f, rng, deg, f.N())
			for _, n := range []int{f.N(), f.N() - 1} {
				var want []int
				for p := 0; p < n; p++ {
					if f.Kernels().EvalSlice(lam, f.Exp(-p)) == 0 {
						want = append(want, p)
					}
				}
				for _, k := range []*Kernels{f.Kernels(), f.ScalarKernels()} {
					got := k.ChienRoots(nil, lam, n)
					if len(got) != len(want) {
						t.Fatalf("%v %s degree %d n=%d: roots %v, want %v", f, k.Tier(), deg, n, got, want)
					}
					for i := range want {
						if got[i] != want[i] {
							t.Fatalf("%v %s degree %d n=%d: roots %v, want %v", f, k.Tier(), deg, n, got, want)
						}
					}
				}
			}
		}
	}
}

// TestChienRootsConcurrentFirstUse: on a fresh field no Chien step table
// is built yet, so concurrent searches of one to eight packed words race
// to build them on first use; every goroutine must find the scalar
// reference's roots (run under -race to check the tables' publication).
func TestChienRootsConcurrentFirstUse(t *testing.T) {
	f := MustNew(8, 0x11D)
	rng := rand.New(rand.NewSource(23))
	var lams [][]Elem
	var want [][]int
	for deg := 8; deg <= chienMaxLanes; deg += 8 {
		lam, _ := plantedLocator(f, rng, deg, f.N())
		lams = append(lams, lam)
		want = append(want, f.ScalarKernels().ChienRoots(nil, lam, f.N()))
	}
	k := f.Kernels()
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range lams {
				j := (i + 2*g) % len(lams) // start on different words
				got := k.ChienRoots(nil, lams[j], f.N())
				if len(got) != len(want[j]) {
					t.Errorf("goroutine %d degree %d: %d roots, want %d", g, len(lams[j])-1, len(got), len(want[j]))
					return
				}
				for r := range got {
					if got[r] != want[j][r] {
						t.Errorf("goroutine %d degree %d: roots %v, want %v", g, len(lams[j])-1, got, want[j])
						return
					}
				}
			}
		}()
	}
	wg.Wait()
}

// TestKernelsWideFieldScalar checks the m > 8 fallback stays correct
// (scalar path, no tables).
func TestKernelsWideFieldScalar(t *testing.T) {
	f := MustDefault(10)
	k := f.Kernels()
	rng := rand.New(rand.NewSource(7))
	word := randElems(rng, f, 64)
	x := Elem(rng.Intn(f.Order()))
	var acc Elem
	for _, r := range word {
		acc = f.Mul(acc, x) ^ r
	}
	if got := k.HornerSlice(word, x); got != acc {
		t.Fatalf("HornerSlice = %#x, want %#x", got, acc)
	}
	dst := make([]Elem, len(word))
	k.MulConstSlice(dst, word, x)
	for i, w := range word {
		if dst[i] != f.Mul(x, w) {
			t.Fatalf("MulConstSlice[%d] mismatch", i)
		}
	}
}

// TestStrideCopies checks Gather/ScatterStride against index math for
// every (depth, length) shape the interleaver uses, including the
// unrolled and tail paths.
func TestStrideCopies(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for _, depth := range []int{1, 2, 3, 4, 5, 8} {
		for _, n := range []int{1, 3, 4, 7, 16, 255} {
			frame := make([]Elem, depth*n)
			for i := range frame {
				frame[i] = Elem(rng.Intn(256))
			}
			cw := make([]Elem, n)
			back := make([]Elem, depth*n)
			for off := 0; off < depth; off++ {
				GatherStride(cw, frame, off, depth)
				for j := 0; j < n; j++ {
					if cw[j] != frame[off+j*depth] {
						t.Fatalf("depth=%d n=%d off=%d: gather[%d] wrong", depth, n, off, j)
					}
				}
				ScatterStride(back, cw, off, depth)
			}
			for i := range frame {
				if back[i] != frame[i] {
					t.Fatalf("depth=%d n=%d: scatter∘gather not identity at %d", depth, n, i)
				}
			}
		}
	}
}

// TestKernelsLengthPanics locks in the explicit length-mismatch panics.
func TestKernelsLengthPanics(t *testing.T) {
	k := MustDefault(8).Kernels()
	for name, fn := range map[string]func(){
		"AddSlice":         func() { k.AddSlice(make([]Elem, 2), make([]Elem, 3), make([]Elem, 2)) },
		"XorSlice":         func() { k.XorSlice(make([]Elem, 2), make([]Elem, 3)) },
		"MulConstSlice":    func() { k.MulConstSlice(make([]Elem, 2), make([]Elem, 3), 2) },
		"MulConstAddSlice": func() { k.MulConstAddSlice(make([]Elem, 2), make([]Elem, 3), 2) },
		"DotSlice":         func() { k.DotSlice(make([]Elem, 2), make([]Elem, 3)) },
		"SyndromeSlice":    func() { k.SyndromeSlice(make([]Elem, 2), nil, make([]Elem, 3)) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: expected panic on length mismatch", name)
				}
			}()
			fn()
		}()
	}
}
