package gfbig

// Differential verification of the wide-field multiply strategies — the
// gfbig analogue of gf.VerifyKernels. Every strategy this host can run
// (AvailableStrategies) must give MulTo, SquareTo and InvTo results
// bit-identical to the allocating schoolbook references Mul, Sqr and Inv
// on random dense operands; ReduceTo is checked against Reduce at the
// same time. gfserved runs this at startup for the ECC curve field and
// gates /healthz on it, so a backend whose hardware multiply disagrees
// with the definitional schoolbook is ejected instead of signing with
// wrong arithmetic.

import "fmt"

// VerifyMulStrategies cross-checks every strategy of AvailableStrategies
// on vectors random dense operand pairs of this field, deterministically
// from seed. It returns nil when each agrees bit-for-bit with the
// schoolbook references.
func (f *Field) VerifyMulStrategies(vectors int, seed int64) error {
	rng := uint64(seed)*0x9e3779b97f4a7c15 + 0x243f6a8885a308d3
	next := func() uint32 {
		rng ^= rng << 13
		rng ^= rng >> 7
		rng ^= rng << 17
		return uint32(rng)
	}
	randElem := func() Elem {
		e := f.Zero()
		for i := range e {
			e[i] = next()
		}
		// Clear bits >= m so the element is normalized.
		top := f.m % WordBits
		if top != 0 {
			e[f.words-1] &= 1<<top - 1
		}
		return e
	}
	s := f.NewScratch()
	got := f.Zero()
	for v := 0; v < vectors; v++ {
		a, b := randElem(), randElem()
		full := f.MulFull(a, b)
		want := f.Reduce(full)
		for _, st := range f.strategies() {
			f.mulTo(st, got, a, b, s)
			if !f.Equal(got, want) {
				return fmt.Errorf("gfbig %s: %s MulTo differs from reference Mul (vector %d)", f, st, v)
			}
			f.squareTo(st, got, a, s)
			if !f.Equal(got, f.Sqr(a)) {
				return fmt.Errorf("gfbig %s: %s SquareTo differs from Sqr (vector %d)", f, st, v)
			}
			if !f.IsZero(a) {
				f.invTo(st, got, a, s)
				if !f.Equal(got, f.Inv(a)) {
					return fmt.Errorf("gfbig %s: %s InvTo differs from Inv (vector %d)", f, st, v)
				}
			}
		}
		f.ReduceTo(got, full, s)
		if !f.Equal(got, want) {
			return fmt.Errorf("gfbig %s: ReduceTo differs from Reduce (vector %d)", f, v)
		}
	}
	return nil
}
