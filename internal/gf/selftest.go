package gf

// Differential kernel verification: the first slice of the roadmap's
// algebraic self-verification harness. The scalar kernel tier is the
// behavioral specification (every product routed through Field.Mul);
// the table tier is an optimization that must be extensionally equal to
// it. VerifyKernels drives every tier built for the field over the same
// pseudo-random vectors across every bulk op and reports the first
// disagreement — production deployments
// (the gfserved /selftest admin endpoint, the gfproxy health gate) run
// it before serving traffic, so a corrupted product table or a
// miscompiled fast path never serves wrong math silently.

import (
	"fmt"
	"math/rand"
)

// VerifyKernels differentially checks every built kernel tier of the
// field against the scalar reference: vectors pseudo-random input
// vectors per (tier, op) — seeded, so failures reproduce — each run
// through a view of Field.Kernels pinned to the tier under test and
// through Field.ScalarKernels, compared element-wise. It also checks
// the auto-dispatched view itself, so the fixed rule's mix is exercised
// end to end. It returns nil when every tier agrees on every
// vector, and a descriptive error naming the tier, the op, the vector
// index and the first mismatching element otherwise.
func VerifyKernels(f *Field, vectors int, seed int64) error {
	if vectors <= 0 {
		vectors = 8
	}
	auto, ref := f.Kernels(), f.ScalarKernels()

	// The tiers under test: every built tier (the scalar tier checks the
	// reference against itself, proving determinism), plus the auto view
	// with rule dispatch.
	views := []*Kernels{auto}
	names := []string{"auto"}
	for id := TierID(0); id < NumTiers; id++ {
		if auto.tiers[id] != nil {
			views = append(views, auto.forTier(id))
			names = append(names, id.String())
		}
	}

	for vi, fast := range views {
		if err := verifyTierOnce(f, fast, ref, names[vi], vectors, seed); err != nil {
			return err
		}
	}
	return nil
}

func verifyTierOnce(f *Field, fast, ref *Kernels, tier string, vectors int, seed int64) error {
	rng := rand.New(rand.NewSource(seed))
	order := f.Order()
	// Vector length: one full codeword worth for m=8 (the serving field),
	// scaled down for narrow fields so every element value still appears,
	// capped for wide fields (m=16 would otherwise mean 64Ki-symbol
	// vectors per op per tier).
	n := order - 1
	if n < 8 {
		n = 8
	}
	if n > 1024 {
		n = 1024
	}

	randVec := func(len_ int) []Elem {
		v := make([]Elem, len_)
		for i := range v {
			v[i] = Elem(rng.Intn(order))
		}
		return v
	}
	randBits := func(len_ int) []byte {
		b := make([]byte, len_)
		for i := range b {
			b[i] = byte(rng.Intn(2))
		}
		return b
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
		scalarCheck := func(op string, g, w Elem) error {
			if g != w {
				return fmt.Errorf("gf: selftest %s/%s: vector %d: %s = %d, scalar reference says %d",
					f, tier, vi, op, g, w)
			}
			return nil
		}

		fast.AddSlice(got, a, b)
		ref.AddSlice(want, a, b)
		if err := check("AddSlice"); err != nil {
			return err
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

		if err := scalarCheck("DotSlice", fast.DotSlice(a, b), ref.DotSlice(a, b)); err != nil {
			return err
		}
		if err := scalarCheck("HornerSlice", fast.HornerSlice(a, x), ref.HornerSlice(a, x)); err != nil {
			return err
		}
		if err := scalarCheck("EvalSlice", fast.EvalSlice(a, x), ref.EvalSlice(a, x)); err != nil {
			return err
		}

		// Syndrome points: distinct powers of alpha, the codec layout.
		xs := make([]Elem, 8)
		for i := range xs {
			xs[i] = f.Exp(i + 1)
		}
		gs, ws := make([]Elem, len(xs)), make([]Elem, len(xs))
		fast.SyndromeSlice(gs, a, xs)
		ref.SyndromeSlice(ws, a, xs)
		got, want = gs, ws
		if err := check("SyndromeSlice"); err != nil {
			return err
		}

		bits := randBits(n)
		if err := scalarCheck("HornerBitSlice", fast.HornerBitSlice(bits, x), ref.HornerBitSlice(bits, x)); err != nil {
			return err
		}
		fast.SyndromeBitSlice(gs, bits, xs)
		ref.SyndromeBitSlice(ws, bits, xs)
		if err := check("SyndromeBitSlice"); err != nil {
			return err
		}

		// Chien search over n points: a locator with roots planted at
		// random points, and the random vector as a locator with chance
		// roots. The degree cycles over the vectors through one packed
		// word, two, five, and more than the packed lanes.
		deg := [...]int{1 + rng.Intn(8), 9 + rng.Intn(8), 40, 70}[vi%4]
		lam := plantedLocator(f, rng, deg, n)
		for _, l := range [][]Elem{lam, a[:min(deg+1, n)]} {
			gp, wp := fast.ChienRoots(nil, l, n), ref.ChienRoots(nil, l, n)
			if len(gp) != len(wp) {
				return fmt.Errorf("gf: selftest %s/%s: vector %d: ChienRoots(degree %d) found %d roots, scalar reference %d",
					f, tier, vi, len(l)-1, len(gp), len(wp))
			}
			for i := range gp {
				if gp[i] != wp[i] {
					return fmt.Errorf("gf: selftest %s/%s: vector %d: ChienRoots(degree %d) root %d at point %d, scalar reference %d",
						f, tier, vi, len(l)-1, i, gp[i], wp[i])
				}
			}
		}

		// LFSR: the systematic encoder's feedback bank, table-heavy on the
		// fast tiers. Taps must be at least one symbol.
		taps := randVec(1 + rng.Intn(min(n, 64)))
		pf, pr := make([]Elem, len(taps)), make([]Elem, len(taps))
		fast.NewLFSR(taps).Run(pf, a)
		ref.NewLFSR(taps).Run(pr, a)
		got, want = pf, pr
		if err := check("LFSR.Run"); err != nil {
			return err
		}
	}
	return nil
}

// plantedLocator returns prod (1 - alpha^p x) over up to deg distinct
// points p < min(n, 2^m-1): a locator whose Chien roots are known to
// lie at those points.
func plantedLocator(f *Field, rng *rand.Rand, deg, n int) []Elem {
	n = min(n, f.N())
	deg = min(deg, n)
	lam := make([]Elem, deg+1)
	lam[0] = 1
	for i, p := range rng.Perm(n)[:deg] {
		x := f.Exp(p)
		for j := i + 1; j >= 1; j-- {
			lam[j] ^= f.Mul(x, lam[j-1])
		}
	}
	return lam
}
