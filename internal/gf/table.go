package gf

// The table tier (m <= 8): a flat product table of one 256-entry row per
// element (entries past the field order unused). Row c is a *[256]Elem
// indexed by a byte, so a product is one L1 lookup with no bounds check
// in the dependent Horner chains. Its Chien search keeps a packed term
// register (chienStep below).

import "sync"

// chienMaxLanes bounds the table tier's packed Chien register: lam[1..64]
// in eight words, 2 KiB of step table per lane. That covers every code
// of gfpipe's default rate ladder, down to RS(255,127) with t = 64;
// higher-degree locators take the row-Horner route. A word's step
// tables (16 KiB) are built on the first search that needs the word, so
// a field pays only for the locator degrees it is asked to search: one
// word for RS(255,239), none for a field that never decodes.
const chienMaxLanes = 64

// buildTable fills k's product table and sets up its lazily built Chien
// step tables. Valid elements of an m <= 8 field fit a byte, so uint8(x)
// indexes a row losslessly.
func (k *Kernels) buildTable() {
	f, order := k.f, k.order
	k.mul = make([]Elem, order<<8)
	for c := 0; c < order; c++ {
		r := k.row(Elem(c))
		for x := 0; x < order; x++ {
			r[x] = f.Mul(Elem(c), Elem(x))
		}
	}
	// Chien step tables, eight lanes to a word: lane k-1 of the packed
	// term register holds lam[k]·alpha^-pk. Two interleaved streams walk
	// the even and the odd points, each two points per step, so lane k-1
	// steps by alpha^-2k: chien[(k-1)/8]()[(k-1)%8][v] = v·alpha^-2k,
	// shifted into the lane's byte.
	k.chien = make([]func() *[8][256]uint64, min(chienMaxLanes, (f.n/2+7)/8*8)/8)
	for w := range k.chien {
		k.chien[w] = sync.OnceValue(func() *[8][256]uint64 {
			t := new([8][256]uint64)
			for i := range t {
				r, sh := k.row(f.Exp(-2*(8*w+i+1))), 8*uint(i)
				for v := 0; v < order; v++ {
					t[i][v] = uint64(r[v]) << sh
				}
			}
			return t
		})
	}
}

// row returns the product-table row of c: row[x] = c·x.
func (k *Kernels) row(c Elem) *[256]Elem { return (*[256]Elem)(k.mul[int(c)<<8:]) }

// syndromeRows is the table loop of SyndromeSlice and SyndromeBitSlice:
// four independent accumulator chains per pass over the word
// (horner4), so the dependent table lookups pipeline the way the
// paper's four SIMD lanes do.
func syndromeRows[S Elem | byte](k *Kernels, dst []Elem, word []S, xs []Elem) {
	j := 0
	for ; j+4 <= len(xs); j += 4 {
		dst[j], dst[j+1], dst[j+2], dst[j+3] = horner4(k.row(xs[j]), k.row(xs[j+1]), k.row(xs[j+2]), k.row(xs[j+3]), word)
	}
	for ; j < len(xs); j++ {
		r := k.row(xs[j])
		var acc Elem
		for _, s := range word {
			acc = r[uint8(acc)] ^ Elem(s)
		}
		dst[j] = acc
	}
}

// horner4 evaluates word, in transmission order, at the four points
// whose product-table rows it is given. It stays out of line so its loop
// has the registers to itself: inlined into SyndromeSlice, the
// accumulators spilled to the stack and an RS(255,223)-sized syndrome
// took 5.0 µs instead of 3.0 (BenchmarkKernelOps m=8, len=255).
//
//go:noinline
func horner4[S Elem | byte](r0, r1, r2, r3 *[256]Elem, word []S) (a0, a1, a2, a3 Elem) {
	for _, s := range word {
		e := Elem(s)
		a0 = r0[uint8(a0)] ^ e
		a1 = r1[uint8(a1)] ^ e
		a2 = r2[uint8(a2)] ^ e
		a3 = r3[uint8(a3)] ^ e
	}
	return a0, a1, a2, a3
}

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

// chienRows is the table loop of ChienRoots.
func (k *Kernels) chienRows(pos []int, lam []Elem, n int) []int {
	f := k.f
	deg := len(lam) - 1
	for deg > 0 && lam[deg] == 0 {
		deg--
	}
	if deg < 1 || deg > 8*len(k.chien) {
		for p := 0; p < n; p++ {
			r := k.row(f.Exp(-p))
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
	for i := 1; i <= deg; i++ {
		w, sh := (i-1)/8, 8*uint((i-1)&7)
		ev[w] |= uint64(uint8(lam[i])) << sh
		od[w] |= uint64(k.row(f.Exp(-i))[uint8(lam[i])]) << sh
	}
	l0 := uint64(uint8(lam[0]))
	words := (deg + 7) / 8
	var tabs [chienMaxLanes / 8]*[8][256]uint64
	for w := 0; w < words; w++ {
		tabs[w] = k.chien[w]()
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
}
