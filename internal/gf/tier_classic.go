package gf

// The two kernel tiers:
//
//   - scalar: every product through Field.Mul — the behavioral
//     specification and the universal fallback.
//   - table (m <= 8): a flat product table of one 256-entry row per
//     element (entries past the field order unused); row c is a
//     *[256]Elem indexed by a byte, so a product is one L1 lookup with
//     no bounds check in the dependent Horner chains. It has no dot
//     product: two independent operands per term need a row lookup per
//     term, which loses to the scalar log/antilog route.

func buildScalarOps(f *Field) *tierOps {
	return &tierOps{
		mulConst: func(dst, src []Elem, c Elem) {
			for i, s := range src {
				dst[i] = f.Mul(c, s)
			}
		},
		mulConstAdd: func(dst, src []Elem, c Elem) {
			for i, s := range src {
				dst[i] ^= f.Mul(c, s)
			}
		},
		dot: func(a, b []Elem) Elem {
			var acc Elem
			for i := range a {
				acc ^= f.Mul(a[i], b[i])
			}
			return acc
		},
		horner: func(word []Elem, x Elem) Elem {
			var acc Elem
			for _, r := range word {
				acc = f.Mul(acc, x) ^ r
			}
			return acc
		},
		eval: func(coeffs []Elem, x Elem) Elem {
			var acc Elem
			for i := len(coeffs) - 1; i >= 0; i-- {
				acc = f.Mul(acc, x) ^ coeffs[i]
			}
			return acc
		},
		syndrome: func(dst, word, xs []Elem) {
			for j, x := range xs {
				var acc Elem
				for _, r := range word {
					acc = f.Mul(acc, x) ^ r
				}
				dst[j] = acc
			}
		},
		hornerBit: func(bits []byte, x Elem) Elem {
			var acc Elem
			for _, b := range bits {
				acc = f.Mul(acc, x) ^ Elem(b)
			}
			return acc
		},
		syndromeBit: func(dst []Elem, bits []byte, xs []Elem) {
			for j, x := range xs {
				var acc Elem
				for _, b := range bits {
					acc = f.Mul(acc, x) ^ Elem(b)
				}
				dst[j] = acc
			}
		},
	}
}

func buildTableOps(f *Field) *tierOps {
	if f.m > tableMaxM {
		return nil
	}
	// Valid elements of an m <= 8 field fit a byte, so uint8(x) indexes
	// a row losslessly.
	order := f.order
	mul := make([]Elem, order<<8)
	row := func(c Elem) *[256]Elem { return (*[256]Elem)(mul[int(c)<<8:]) }
	for c := 0; c < order; c++ {
		r := row(Elem(c))
		for x := 0; x < order; x++ {
			r[x] = f.Mul(Elem(c), Elem(x))
		}
	}
	hornerRow := func(word []Elem, r *[256]Elem) Elem {
		var acc Elem
		for _, s := range word {
			acc = r[uint8(acc)] ^ s
		}
		return acc
	}
	hornerBitRow := func(bits []byte, r *[256]Elem) Elem {
		var acc Elem
		for _, b := range bits {
			acc = r[uint8(acc)] ^ Elem(b)
		}
		return acc
	}
	return &tierOps{
		mul: mul,
		mulConst: func(dst, src []Elem, c Elem) {
			r := row(c)
			for i, s := range src {
				dst[i] = r[uint8(s)]
			}
		},
		mulConstAdd: func(dst, src []Elem, c Elem) {
			r := row(c)
			for i, s := range src {
				dst[i] ^= r[uint8(s)]
			}
		},
		horner: func(word []Elem, x Elem) Elem {
			return hornerRow(word, row(x))
		},
		eval: func(coeffs []Elem, x Elem) Elem {
			r := row(x)
			var acc Elem
			for i := len(coeffs) - 1; i >= 0; i-- {
				acc = r[uint8(acc)] ^ coeffs[i]
			}
			return acc
		},
		// Four independent accumulator chains per pass over the word, so
		// the dependent table lookups pipeline the way the paper's four
		// SIMD lanes do.
		syndrome: func(dst, word, xs []Elem) {
			j := 0
			for ; j+4 <= len(xs); j += 4 {
				r0, r1, r2, r3 := row(xs[j]), row(xs[j+1]), row(xs[j+2]), row(xs[j+3])
				var a0, a1, a2, a3 Elem
				for _, r := range word {
					a0 = r0[uint8(a0)] ^ r
					a1 = r1[uint8(a1)] ^ r
					a2 = r2[uint8(a2)] ^ r
					a3 = r3[uint8(a3)] ^ r
				}
				dst[j], dst[j+1], dst[j+2], dst[j+3] = a0, a1, a2, a3
			}
			for ; j < len(xs); j++ {
				dst[j] = hornerRow(word, row(xs[j]))
			}
		},
		hornerBit: func(bits []byte, x Elem) Elem {
			return hornerBitRow(bits, row(x))
		},
		syndromeBit: func(dst []Elem, bits []byte, xs []Elem) {
			j := 0
			for ; j+4 <= len(xs); j += 4 {
				r0, r1, r2, r3 := row(xs[j]), row(xs[j+1]), row(xs[j+2]), row(xs[j+3])
				var a0, a1, a2, a3 Elem
				for _, b := range bits {
					e := Elem(b)
					a0 = r0[uint8(a0)] ^ e
					a1 = r1[uint8(a1)] ^ e
					a2 = r2[uint8(a2)] ^ e
					a3 = r3[uint8(a3)] ^ e
				}
				dst[j], dst[j+1], dst[j+2], dst[j+3] = a0, a1, a2, a3
			}
			for ; j < len(xs); j++ {
				dst[j] = hornerBitRow(bits, row(xs[j]))
			}
		},
	}
}
