package gfbig

// Differential verification of the wide-field full-product strategies —
// the gfbig analogue of gf.VerifyKernels. Karatsuba, in both its
// allocating and scratch (arena) forms, must be bit-identical to the
// schoolbook reference on random dense operands; the scratch square /
// reduce / invert paths are checked against their reference
// counterparts at the same time. gfserved runs this at startup for the
// ECC curve field and gates /healthz on it, so a backend whose
// Karatsuba math disagrees with the definitional schoolbook is ejected
// instead of signing with wrong arithmetic.

import "fmt"

// VerifyMulStrategies cross-checks both full-product strategies on
// vectors random dense operand pairs of this field, deterministically
// from seed. It returns nil when every strategy agrees bit-for-bit
// with the schoolbook reference and the scratch To-variants agree with
// their allocating counterparts.
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
	strategies := [NumStrategies]func(a, b Elem) []uint32{
		f.MulFull,
		func(a, b Elem) []uint32 { return f.MulFullKaratsuba(a, b, karatsubaLevels) },
	}
	got := f.Zero()
	for v := 0; v < vectors; v++ {
		a, b := randElem(), randElem()
		ref := strategies[StratSchoolbook](a, b)
		for st := StratSchoolbook + 1; st < NumStrategies; st++ {
			full := strategies[st](a, b)
			for i := range ref {
				if full[i] != ref[i] {
					return fmt.Errorf("gfbig %s: %s full product differs from schoolbook at word %d (vector %d)",
						f, st, i, v)
				}
			}
		}
		want := f.Reduce(ref)
		// Every strategy again, through the scratch path this time.
		for st := StratSchoolbook; st < NumStrategies; st++ {
			f.mulFullInto(st, a, b, s)
			f.reduceInPlace(s.full)
			copy(got, s.full[:f.words])
			if !f.Equal(got, want) {
				return fmt.Errorf("gfbig %s: %s MulTo differs from reference Mul (vector %d)",
					f, st, v)
			}
		}
		f.ReduceTo(got, ref, s)
		if !f.Equal(got, want) {
			return fmt.Errorf("gfbig %s: ReduceTo differs from Reduce (vector %d)", f, v)
		}
		f.SquareTo(got, a, s)
		if !f.Equal(got, f.Sqr(a)) {
			return fmt.Errorf("gfbig %s: SquareTo differs from Sqr (vector %d)", f, v)
		}
		if !f.IsZero(a) {
			f.InvTo(got, a, s)
			if !f.Equal(got, f.Inv(a)) {
				return fmt.Errorf("gfbig %s: InvTo differs from Inv (vector %d)", f, v)
			}
		}
	}
	return nil
}
