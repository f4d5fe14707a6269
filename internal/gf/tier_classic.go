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
//     term, which loses to the scalar log/antilog route. Its Chien
//     search keeps a packed term register (chienStep below).

import "sync"

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
		chien: func(pos []int, lam []Elem, n int) []int {
			for p := 0; p < n; p++ {
				x := f.Exp(-p)
				var acc Elem
				for i := len(lam) - 1; i >= 0; i-- {
					acc = f.Mul(acc, x) ^ lam[i]
				}
				if acc == 0 {
					pos = append(pos, p)
				}
			}
			return pos
		},
	}
}

// chienMaxLanes bounds the table tier's packed Chien register: lam[1..64]
// in eight words, 2 KiB of step table per lane. That covers every code
// of gfpipe's default rate ladder, down to RS(255,127) with t = 64;
// higher-degree locators take the row-Horner route. A word's step
// tables (16 KiB) are built on the first search that needs the word, so
// a field pays only for the locator degrees it is asked to search: one
// word for RS(255,239), none for a field that never decodes.
const chienMaxLanes = 64

// chienStep advances the eight lanes of one packed term-register word by
// one step: lane i becomes t[i][lane i], the lane's byte times its
// lane's constant, already shifted into place.
func chienStep(x uint64, t *[8][256]uint64) uint64 {
	return t[0][uint8(x)] ^ t[1][uint8(x>>8)] ^ t[2][uint8(x>>16)] ^ t[3][uint8(x>>24)] ^
		t[4][uint8(x>>32)] ^ t[5][uint8(x>>40)] ^ t[6][uint8(x>>48)] ^ t[7][uint8(x>>56)]
}

// foldLanes XORs the eight byte lanes of x into its low byte: the sum of
// the register's terms.
func foldLanes(x uint64) uint64 {
	x ^= x >> 32
	x ^= x >> 16
	x ^= x >> 8
	return x & 0xff
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
	// Chien step tables, eight lanes to a word: lane k-1 of the packed
	// term register holds lam[k]·alpha^-pk. Two interleaved streams walk
	// the even and the odd points, each two points per step, so lane k-1
	// steps by alpha^-2k: steps[(k-1)/8]()[(k-1)%8][v] = v·alpha^-2k,
	// shifted into the lane's byte.
	lanes := min(chienMaxLanes, (f.n/2+7)/8*8)
	steps := make([]func() *[8][256]uint64, lanes/8)
	for w := range steps {
		steps[w] = sync.OnceValue(func() *[8][256]uint64 {
			t := new([8][256]uint64)
			for i := range t {
				r, sh := row(f.Exp(-2*(8*w+i+1))), 8*uint(i)
				for v := 0; v < order; v++ {
					t[i][v] = uint64(r[v]) << sh
				}
			}
			return t
		})
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
		chien: func(pos []int, lam []Elem, n int) []int {
			deg := len(lam) - 1
			for deg > 0 && lam[deg] == 0 {
				deg--
			}
			if deg < 1 || deg > lanes {
				for p := 0; p < n; p++ {
					r := row(f.Exp(-p))
					var acc Elem
					for i := len(lam) - 1; i >= 0; i-- {
						acc = r[uint8(acc)] ^ lam[i]
					}
					if acc == 0 {
						pos = append(pos, p)
					}
				}
				return pos
			}
			// ev holds the terms at point 0 (lam[k] itself), od at point 1
			// (lam[k]·alpha^-k); Lambda(alpha^-p) = lam[0] ^ the folded lanes.
			var ev, od [chienMaxLanes / 8]uint64
			for k := 1; k <= deg; k++ {
				w, sh := (k-1)/8, 8*uint((k-1)&7)
				ev[w] |= uint64(uint8(lam[k])) << sh
				od[w] |= uint64(row(f.Exp(-k))[uint8(lam[k])]) << sh
			}
			l0 := uint64(uint8(lam[0]))
			words := (deg + 7) / 8
			var tabs [chienMaxLanes / 8]*[8][256]uint64
			for w := 0; w < words; w++ {
				tabs[w] = steps[w]()
			}
			p := 0
			// A degree-deg polynomial has at most deg roots, so over
			// distinct points (n <= 2^m-1) the search stops at the deg-th.
			last := -1
			if n <= f.n {
				last = len(pos) + deg
			}
			if words == 1 {
				// t <= 8, the serving RS(255,239): the register stays in
				// locals (measured 1.28x faster than the general loop on
				// DecodeTo255_239_mixed; see BENCH_17.json), and the
				// general loop below finds no points left.
				t := tabs[0]
				e, o := ev[0], od[0]
				for ; p+1 < n; p += 2 {
					if foldLanes(e) == l0 {
						if pos = append(pos, p); len(pos) == last {
							return pos
						}
					}
					if foldLanes(o) == l0 {
						if pos = append(pos, p+1); len(pos) == last {
							return pos
						}
					}
					e, o = chienStep(e, t), chienStep(o, t)
				}
				ev[0] = e
			}
			for ; p+1 < n; p += 2 {
				var fe, fo uint64
				for w := 0; w < words; w++ {
					fe ^= ev[w]
					fo ^= od[w]
				}
				if foldLanes(fe) == l0 {
					if pos = append(pos, p); len(pos) == last {
						return pos
					}
				}
				if foldLanes(fo) == l0 {
					if pos = append(pos, p+1); len(pos) == last {
						return pos
					}
				}
				for w := 0; w < words; w++ {
					ev[w], od[w] = chienStep(ev[w], tabs[w]), chienStep(od[w], tabs[w])
				}
			}
			if p < n { // odd n: the last even point
				var fe uint64
				for w := 0; w < words; w++ {
					fe ^= ev[w]
				}
				if foldLanes(fe) == l0 {
					pos = append(pos, p)
				}
			}
			return pos
		},
	}
}
