package gf

// Differential kernel verification: the first slice of the roadmap's
// algebraic self-verification harness. The scalar loops are the
// behavioral specification (every product routed through Field.Mul);
// the table loops are an optimization that must be extensionally equal
// to them. VerifyKernels drives both over the same pseudo-random
// vectors across every bulk op and reports the first disagreement —
// production deployments (the gfserved /selftest admin endpoint, the
// gfproxy health gate) run it before serving traffic, so a corrupted
// product table or a miscompiled fast path never serves wrong math
// silently.

import (
	"fmt"
	"math/rand"
)

// VerifyKernels differentially checks the field's table kernels against
// the scalar reference: vectors pseudo-random input vectors per op —
// seeded, so failures reproduce — each run through the product-table
// loops and through Field.ScalarKernels, compared element-wise. The
// table loops are checked whatever the scalar force says, so a
// corrupted table is caught before the force is lifted; a field with no
// table (m > 8) has only the scalar loops, which are then checked
// against themselves. It returns nil when every op agrees on every
// vector, and a descriptive error naming the tier, the op, the vector
// index and the first mismatching element otherwise.
func VerifyKernels(f *Field, vectors int, seed int64) error {
	if vectors <= 0 {
		vectors = 8
	}
	fast, ref := f.Kernels().unforced(), f.ScalarKernels()
	tier := fast.Tier()
	rng := rand.New(rand.NewSource(seed))
	order := f.Order()
	// Vector length: one full codeword worth for m=8 (the serving field),
	// scaled down for narrow fields so every element value still appears,
	// capped for wide fields (m=16 would otherwise mean 64Ki-symbol
	// vectors per op).
	n := min(max(order-1, 8), 1024)

	randVec := func(len_ int) []Elem {
		v := make([]Elem, len_)
		for i := range v {
			v[i] = Elem(rng.Intn(order))
		}
		return v
	}
	// Syndrome points: distinct powers of alpha, the codec layout.
	xs := make([]Elem, 8)
	for i := range xs {
		xs[i] = f.Exp(i + 1)
	}

	for vi := 0; vi < vectors; vi++ {
		a, b := randVec(n), randVec(n)
		c := Elem(rng.Intn(order))
		x := Elem(rng.Intn(order))

		got, want := make([]Elem, n), make([]Elem, n)
		check := func(op string) error {
			for i := range got {
				if got[i] != want[i] {
					return fmt.Errorf("gf: selftest %s/%s: vector %d: %s[%d] = %d, scalar reference says %d",
						f, tier, vi, op, i, got[i], want[i])
				}
			}
			return nil
		}

		fast.MulConstSlice(got, a, c)
		ref.MulConstSlice(want, a, c)
		if err := check("MulConstSlice"); err != nil {
			return err
		}

		copy(got, b)
		copy(want, b)
		fast.MulConstAddSlice(got, a, c)
		ref.MulConstAddSlice(want, a, c)
		if err := check("MulConstAddSlice"); err != nil {
			return err
		}

		if g, w := fast.EvalSlice(a, x), ref.EvalSlice(a, x); g != w {
			return fmt.Errorf("gf: selftest %s/%s: vector %d: EvalSlice = %d, scalar reference says %d",
				f, tier, vi, g, w)
		}

		got, want = make([]Elem, len(xs)), make([]Elem, len(xs))
		fast.SyndromeSlice(got, a, xs)
		ref.SyndromeSlice(want, a, xs)
		if err := check("SyndromeSlice"); err != nil {
			return err
		}

		bits := make([]byte, n)
		for i := range bits {
			bits[i] = byte(rng.Intn(2))
		}
		fast.SyndromeBitSlice(got, bits, xs)
		ref.SyndromeBitSlice(want, bits, xs)
		if err := check("SyndromeBitSlice"); err != nil {
			return err
		}

		// Chien search over n points: a locator with roots planted at
		// random points, whose roots are known, and the random vector as
		// a locator with chance roots, which only the scalar search can
		// tell. The degree cycles over the vectors through one packed
		// word, two, five, and more than the packed lanes.
		deg := [...]int{1 + rng.Intn(8), 9 + rng.Intn(8), 40, 70}[vi%4]
		lam, planted := plantedLocator(f, rng, deg, n)
		chance := a[:min(deg+1, n)]
		for _, c := range []struct {
			lam []Elem
			wp  []int // the planted roots, or the scalar search's
		}{
			{lam, plantedRoots(f, planted, n)},
			{chance, ref.ChienRoots(nil, chance, n)},
		} {
			gp := fast.ChienRoots(nil, c.lam, n)
			if len(gp) != len(c.wp) {
				return fmt.Errorf("gf: selftest %s/%s: vector %d: ChienRoots(degree %d) found %d roots, want %d",
					f, tier, vi, len(c.lam)-1, len(gp), len(c.wp))
			}
			for i := range gp {
				if gp[i] != c.wp[i] {
					return fmt.Errorf("gf: selftest %s/%s: vector %d: ChienRoots(degree %d) root %d at point %d, want %d",
						f, tier, vi, len(c.lam)-1, i, gp[i], c.wp[i])
				}
			}
		}

		// LFSR: the systematic encoder's feedback bank, packed from the
		// product table. Taps must be at least one symbol.
		taps := randVec(1 + rng.Intn(min(n, 64)))
		got, want = make([]Elem, len(taps)), make([]Elem, len(taps))
		fast.NewLFSR(taps).Run(got, a)
		ref.NewLFSR(taps).Run(want, a)
		if err := check("LFSR.Run"); err != nil {
			return err
		}
	}
	return nil
}

// plantedLocator returns prod (1 - alpha^p x) over up to deg distinct
// points p < min(n, 2^m-1): a locator whose Chien roots are known to
// lie at those points, which it returns too.
func plantedLocator(f *Field, rng *rand.Rand, deg, n int) (lam []Elem, points []int) {
	n = min(n, f.N())
	deg = min(deg, n)
	lam = make([]Elem, deg+1)
	lam[0] = 1
	points = rng.Perm(n)[:deg]
	for i, p := range points {
		x := f.Exp(p)
		for j := i + 1; j >= 1; j-- {
			lam[j] ^= f.Mul(x, lam[j-1])
		}
	}
	return lam, points
}

// plantedRoots returns, ascending, the positions p < n a Chien search
// over n points must report for a locator planted at points: alpha^-p
// repeats every 2^m-1 positions, so a search longer than that (narrow
// fields) sees each planted root again.
func plantedRoots(f *Field, points []int, n int) []int {
	root := make([]bool, f.N())
	for _, p := range points {
		root[p] = true
	}
	var pos []int
	for p := 0; p < n; p++ {
		if root[p%f.N()] {
			pos = append(pos, p)
		}
	}
	return pos
}
