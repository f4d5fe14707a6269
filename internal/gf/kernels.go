package gf

// Bulk (slice-at-a-time) arithmetic: the software analogue of the paper's
// 4-way SIMD GF instructions. Where the GF processor wires 16 multiplier
// primitives into gfMult4/gfSquare4/gfInv4 so a whole vector of symbols
// moves through the datapath in one cycle, this layer replaces the
// symbol-at-a-time Field.Mul route (two table lookups plus a zero branch
// per product) with whole-slice kernels.
//
// A field's kernels are bound when they are built (see tier.go): every
// op runs its product-table loop when the view has the table (m <= 8)
// and, on Field.Kernels, the scalar force is off, and its scalar loop
// otherwise. The scalar loops are the behavioral specification;
// selftest.go proves the table loops extensionally equal to them.
//
// All operations are allocation-free: callers own every buffer.

import "fmt"

// tableMaxM is the largest extension degree for which the flat product
// table is built (2^m rows of 256 Elem; 128 KiB at m = 8).
const tableMaxM = 8

// Kernels provides bulk slice operations over one field. Obtain one with
// Field.Kernels (the field's binding: the product table for m <= 8,
// subject to the scalar force) or Field.ScalarKernels (the scalar
// reference, used by tests and A/B benchmarks). A Kernels is immutable
// after construction and safe for concurrent use by any number of
// goroutines.
//
// Inputs must be valid field elements (Field.Valid); out-of-field values
// may panic (table loops) or produce junk (scalar loops), exactly as
// the scalar table lookups in Field.Mul do.
type Kernels struct {
	f      *Field
	order  int
	mul    []Elem // flat product table, row c at [c<<8:c<<8+256]; nil on scalar kernels
	served bool   // Field.Kernels itself, which the scalar force reroutes

	// chien holds the Chien step tables of each packed term-register
	// word, built on first use (table.go).
	chien []func() *[8][256]uint64
}

// Kernels returns the field's bulk-arithmetic kernels, built lazily on
// first use and cached on the Field: the product-table loops for
// m <= 8, the scalar loops above, and the scalar loops everywhere while
// the scalar force is on.
func (f *Field) Kernels() *Kernels {
	f.kernOnce.Do(f.buildKernels)
	return f.kern
}

// ScalarKernels returns kernels bound to the pure-scalar reference:
// same API, every product routed through Field.Mul. Tests and
// benchmarks use it as the behavioral baseline the table loops are
// checked against.
func (f *Field) ScalarKernels() *Kernels {
	f.kernOnce.Do(f.buildKernels)
	return f.scalarKern
}

func (f *Field) buildKernels() {
	k := &Kernels{f: f, order: f.order, served: true}
	if f.m <= tableMaxM {
		k.buildTable()
	}
	f.kern = k
	f.scalarKern = &Kernels{f: f, order: f.order}
	publishSelections(k)
}

// unforced returns a view of k that the scalar force does not reroute:
// the table loops whenever the field has a table. VerifyKernels checks
// it, so the table stays verified while the force is on.
func (k *Kernels) unforced() *Kernels {
	v := *k
	v.served = false
	return &v
}

// onTable reports whether a call runs the table loop: the view has the
// product table and, on Field.Kernels, the scalar force is off.
func (k *Kernels) onTable() bool {
	return k.mul != nil && !(k.served && scalarForced.Load())
}

// Field returns the field these kernels operate in.
func (k *Kernels) Field() *Field { return k.f }

// Table reports whether this view has the flat product table (false on
// Field.ScalarKernels and for fields with m > 8).
func (k *Kernels) Table() bool { return k.mul != nil }

// Tier names the tier this view is bound to: "table" when it has the
// product table, "scalar" otherwise.
func (k *Kernels) Tier() string {
	if k.Table() {
		return TierTable.String()
	}
	return TierScalar.String()
}

// AvailableTiers lists the names of the tiers this view can run, in
// TierID order: scalar always, and table when it has the product table.
func (k *Kernels) AvailableTiers() []string {
	if k.Table() {
		return TierNames()
	}
	return []string{TierScalar.String()}
}

// XorSlice folds src into dst: dst[i] ^= src[i]. src must not be longer
// than dst.
func (k *Kernels) XorSlice(dst, src []Elem) {
	if len(src) > len(dst) {
		panic(fmt.Sprintf("gf: XorSlice src length %d exceeds dst %d", len(src), len(dst)))
	}
	hit(k.onTable()) // a pure XOR: the same loop on either tier
	for i, v := range src {
		dst[i] ^= v
	}
}

// MulConstSlice sets dst[i] = c * src[i]. dst may alias src. Both slices
// must have equal length.
func (k *Kernels) MulConstSlice(dst, src []Elem, c Elem) {
	if len(dst) != len(src) {
		panic(fmt.Sprintf("gf: MulConstSlice length mismatch dst=%d src=%d", len(dst), len(src)))
	}
	table := hit(k.onTable())
	switch {
	case c == 0:
		clear(dst)
	case c == 1:
		copy(dst, src)
	case table:
		r := k.row(c)
		for i, s := range src {
			dst[i] = r[uint8(s)]
		}
	default:
		for i, s := range src {
			dst[i] = k.f.Mul(c, s)
		}
	}
}

// MulConstAddSlice folds c * src into dst: dst[i] ^= c * src[i] — the
// LFSR/encode primitive (one generator-row update per feedback symbol).
// dst must not alias src. Both slices must have equal length.
func (k *Kernels) MulConstAddSlice(dst, src []Elem, c Elem) {
	if len(dst) != len(src) {
		panic(fmt.Sprintf("gf: MulConstAddSlice length mismatch dst=%d src=%d", len(dst), len(src)))
	}
	table := hit(k.onTable())
	switch {
	case c == 0:
	case c == 1:
		for i, v := range src {
			dst[i] ^= v
		}
	case table:
		r := k.row(c)
		for i, s := range src {
			dst[i] ^= r[uint8(s)]
		}
	default:
		for i, s := range src {
			dst[i] ^= k.f.Mul(c, s)
		}
	}
}

// EvalSlice evaluates the polynomial with coeffs[i] the coefficient of
// x^i (package gfpoly's storage order) at x by Horner's rule.
func (k *Kernels) EvalSlice(coeffs []Elem, x Elem) Elem {
	var acc Elem
	if hit(k.onTable()) {
		r := k.row(x)
		for i := len(coeffs) - 1; i >= 0; i-- {
			acc = r[uint8(acc)] ^ coeffs[i]
		}
		return acc
	}
	for i := len(coeffs) - 1; i >= 0; i-- {
		acc = k.f.Mul(acc, x) ^ coeffs[i]
	}
	return acc
}

// SyndromeSlice sets dst[j] to the Horner value of word at xs[j], for
// every evaluation point: the coefficients are in transmission order
// (word[0] is the highest-degree one), so each point runs
//
//	acc <- acc*xs[j] + word[i]   for i = 0..len(word)-1
//
// the received-word layout of the RS/BCH codecs and the paper's
// syndrome recursion S_j <- S_j*alpha^j + R. The table loop runs four
// independent accumulator chains per pass (the software image of the
// paper's 4-lane SIMD). dst and xs must have equal length.
func (k *Kernels) SyndromeSlice(dst []Elem, word []Elem, xs []Elem) {
	if len(dst) != len(xs) {
		panic(fmt.Sprintf("gf: SyndromeSlice length mismatch dst=%d xs=%d", len(dst), len(xs)))
	}
	if hit(k.onTable()) {
		syndromeRows(k, dst, word, xs)
	} else {
		syndromeScalar(k.f, dst, word, xs)
	}
}

// SyndromeBitSlice is SyndromeSlice for a binary word stored one bit per
// byte (values 0/1) — the BCH syndrome kernel.
func (k *Kernels) SyndromeBitSlice(dst []Elem, bits []byte, xs []Elem) {
	if len(dst) != len(xs) {
		panic(fmt.Sprintf("gf: SyndromeBitSlice length mismatch dst=%d xs=%d", len(dst), len(xs)))
	}
	if hit(k.onTable()) {
		syndromeRows(k, dst, bits, xs)
	} else {
		syndromeScalar(k.f, dst, bits, xs)
	}
}

// syndromeScalar is the scalar loop of SyndromeSlice and
// SyndromeBitSlice.
func syndromeScalar[S Elem | byte](f *Field, dst []Elem, word []S, xs []Elem) {
	for j, x := range xs {
		var acc Elem
		for _, s := range word {
			acc = f.Mul(acc, x) ^ Elem(s)
		}
		dst[j] = acc
	}
}

// ChienRoots appends to pos, in increasing order, every p in [0, n) at
// which the polynomial lam (lam[i] the coefficient of x^i, package
// gfpoly's order) vanishes at alpha^-p: the Chien search of a length-n
// code, where a root at alpha^-p locates codeword index n-1-p. The table
// loop keeps a packed term register, byte lane k-1 holding
// lam[k]·alpha^-pk, and advances every lane by one lookup per point
// (see table.go); the scalar loop evaluates lam by Horner's rule at
// every point. pos grows only by the roots found.
func (k *Kernels) ChienRoots(pos []int, lam []Elem, n int) []int {
	if hit(k.onTable()) {
		return k.chienRows(pos, lam, n)
	}
	f := k.f
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
}

// LFSR is a multiply-accumulate bank precomputed for one fixed
// coefficient vector — a generator polynomial in transmission order, the
// systematic encoder's feedback taps. On the table tier every possible
// feedback row fb*coeffs is materialized once, packed eight symbols to a
// uint64 (byte lane j%8 of word j/8 holds tap j's product), and the
// register is packed the same way, so an LFSR step is one row load plus
// a word-wide shift and XOR over ⌈nk/8⌉ words, with no multiplies at
// all: the software image of the paper's hard-wired encoder datapath,
// where the constant multiplications are baked into the routing. The
// two- and four-word banks also step four symbols at a time (see
// runPacked).
//
// An LFSR is immutable after construction and safe for concurrent use.
type LFSR struct {
	k      *Kernels
	nk     int
	coeffs []Elem
	words  int      // ⌈nk/8⌉, the packed row and register length
	tab    []uint64 // banks of order rows of words (see lfsrStride); nil on the scalar route
}

// lfsrStride is how many symbols the packed two- and four-word loops
// take per step; only those banks build the lfsrStride-1 extra banks,
// every other width has bank 0 alone. Bank j of LFSR.tab holds, for
// each feedback symbol, what it adds to the register j steps later:
// bank 0 is fb*coeffs, and bank j+1 is bank j shifted down one lane
// plus the bank-0 row its lane 0 feeds back. The step is linear, so
// four symbols fold in as four independent row loads (bank 3-i indexed
// by lane i of the register XOR symbol i) and one four-lane shift,
// instead of four dependent steps.
const lfsrStride = 4

// lfsrMaxWords caps the packed register at 256 taps, which covers the
// parity of every RS code over a field with a product table (n-k <= 254).
// Longer banks run the scalar route.
const lfsrMaxWords = 32

// NewLFSR builds the feedback bank for the given taps (len >= 1).
func (k *Kernels) NewLFSR(coeffs []Elem) *LFSR {
	if len(coeffs) == 0 {
		panic("gf: NewLFSR with no coefficients")
	}
	l := &LFSR{k: k, nk: len(coeffs), coeffs: append([]Elem(nil), coeffs...)}
	l.words = (l.nk + 7) / 8
	if k.mul != nil && l.words <= lfsrMaxWords {
		w, bank, banks := l.words, k.order*l.words, 1
		if w == 2 || w == 4 {
			banks = lfsrStride
		}
		l.tab = make([]uint64, banks*bank)
		prod := make([]Elem, l.nk)
		for fb := 0; fb < k.order; fb++ {
			k.MulConstSlice(prod, l.coeffs, Elem(fb))
			packLanes(l.tab[fb*w:(fb+1)*w], prod)
		}
		for j := 1; j < banks; j++ {
			for fb := 0; fb < k.order; fb++ {
				src := l.tab[(j-1)*bank+fb*w : (j-1)*bank+(fb+1)*w]
				dst := l.tab[j*bank+fb*w : j*bank+(fb+1)*w]
				back := l.tab[int(uint8(src[0]))*w:]
				for i := range dst {
					dst[i] = src[i]>>8 ^ back[i]
					if i+1 < w {
						dst[i] ^= src[i+1] << 56
					}
				}
			}
		}
	}
	return l
}

// packLanes stores the byte-wide symbols v into the byte lanes of w:
// symbol j in bits 8(j%8) of word j/8. Lanes past len(v) are zero.
func packLanes(w []uint64, v []Elem) {
	clear(w)
	for j, s := range v {
		w[j>>3] |= uint64(s) << (8 * (j & 7))
	}
}

// Run feeds msg through the register: for each symbol s,
//
//	feedback = s ^ par[0]; par shifts down one; par ^= feedback*coeffs
//
// updating par (length = len(coeffs)) in place. Seed par with zeros to
// compute the systematic RS parity of msg — or, fed a whole received
// word, its remainder r(x)·x^nk mod g(x). While the scalar force is
// on the definitional multiply-accumulate route is taken even if the
// bank exists, so the tier accounting stays honest.
func (l *LFSR) Run(par, msg []Elem) {
	nk := l.nk
	if len(par) != nk {
		panic(fmt.Sprintf("gf: LFSR.Run register length %d, want %d", len(par), nk))
	}
	if !hit(l.tab != nil && l.k.onTable()) {
		for _, s := range msg {
			fb := s ^ par[0]
			copy(par, par[1:])
			par[nk-1] = 0
			if fb != 0 {
				l.k.MulConstAddSlice(par, l.coeffs, fb)
			}
		}
		return
	}
	var buf [lfsrMaxWords]uint64
	reg := buf[:l.words]
	packLanes(reg, par)
	l.runPacked(reg, msg)
	for j := range par {
		par[j] = Elem(uint8(reg[j>>3] >> (8 * (j & 7))))
	}
}

// runPacked steps the packed register reg once per symbol of msg: the
// lanes shift down one (lane 0 of word i+1 enters lane 7 of word i) and
// the feedback row is XORed in. The two- and four-word banks of
// RS(255,239) and RS(255,223) keep the register in locals and take
// lfsrStride symbols per step, so the row loads no longer wait on each
// other; the last len(msg)%4 symbols take single steps.
func (l *LFSR) runPacked(reg []uint64, msg []Elem) {
	tab := l.tab
	switch len(reg) {
	case 2:
		bank := len(tab) / lfsrStride
		t0, t1, t2, t3 := tab[:bank], tab[bank:2*bank], tab[2*bank:3*bank], tab[3*bank:]
		r0, r1 := reg[0], reg[1]
		for ; len(msg) >= 4; msg = msg[4:] {
			a := 2 * int(uint8(r0)^uint8(msg[0]))
			b := 2 * int(uint8(r0>>8)^uint8(msg[1]))
			c := 2 * int(uint8(r0>>16)^uint8(msg[2]))
			d := 2 * int(uint8(r0>>24)^uint8(msg[3]))
			r0, r1 = (r0>>32|r1<<32)^t3[a]^t2[b]^t1[c]^t0[d], r1>>32^t3[a+1]^t2[b+1]^t1[c+1]^t0[d+1]
		}
		for _, s := range msg {
			row := t0[2*int(uint8(r0)^uint8(s)):]
			row = row[:2]
			r0 = (r0>>8 | r1<<56) ^ row[0]
			r1 = r1>>8 ^ row[1]
		}
		reg[0], reg[1] = r0, r1
	case 4:
		bank := len(tab) / lfsrStride
		t0, t1, t2, t3 := tab[:bank], tab[bank:2*bank], tab[2*bank:3*bank], tab[3*bank:]
		r0, r1, r2, r3 := reg[0], reg[1], reg[2], reg[3]
		for ; len(msg) >= 4; msg = msg[4:] {
			a := 4 * int(uint8(r0)^uint8(msg[0]))
			b := 4 * int(uint8(r0>>8)^uint8(msg[1]))
			c := 4 * int(uint8(r0>>16)^uint8(msg[2]))
			d := 4 * int(uint8(r0>>24)^uint8(msg[3]))
			r0, r1, r2, r3 = (r0>>32|r1<<32)^t3[a]^t2[b]^t1[c]^t0[d],
				(r1>>32|r2<<32)^t3[a+1]^t2[b+1]^t1[c+1]^t0[d+1],
				(r2>>32|r3<<32)^t3[a+2]^t2[b+2]^t1[c+2]^t0[d+2],
				r3>>32^t3[a+3]^t2[b+3]^t1[c+3]^t0[d+3]
		}
		for _, s := range msg {
			row := t0[4*int(uint8(r0)^uint8(s)):]
			row = row[:4]
			r0 = (r0>>8 | r1<<56) ^ row[0]
			r1 = (r1>>8 | r2<<56) ^ row[1]
			r2 = (r2>>8 | r3<<56) ^ row[2]
			r3 = r3>>8 ^ row[3]
		}
		reg[0], reg[1], reg[2], reg[3] = r0, r1, r2, r3
	default:
		w := len(reg)
		for _, s := range msg {
			fb := int(uint8(reg[0]) ^ uint8(s))
			row := tab[fb*w : fb*w+w]
			for i := 0; i < w-1; i++ {
				reg[i] = (reg[i]>>8 | reg[i+1]<<56) ^ row[i]
			}
			reg[w-1] = reg[w-1]>>8 ^ row[w-1]
		}
	}
}

// GatherStride copies len(dst) elements src[off], src[off+stride], ...
// into dst — the deinterleave copy kernel (column i of a depth-`stride`
// interleaved frame is off=i).
func GatherStride(dst, src []Elem, off, stride int) {
	if stride == 1 {
		copy(dst, src[off:])
		return
	}
	si := off
	i := 0
	for ; i+4 <= len(dst); i += 4 {
		dst[i] = src[si]
		dst[i+1] = src[si+stride]
		dst[i+2] = src[si+2*stride]
		dst[i+3] = src[si+3*stride]
		si += 4 * stride
	}
	for ; i < len(dst); i++ {
		dst[i] = src[si]
		si += stride
	}
}

// ScatterStride copies len(src) elements of src into dst[off],
// dst[off+stride], ... — the interleave copy kernel, inverse of
// GatherStride.
func ScatterStride(dst, src []Elem, off, stride int) {
	if stride == 1 {
		copy(dst[off:], src)
		return
	}
	di := off
	i := 0
	for ; i+4 <= len(src); i += 4 {
		dst[di] = src[i]
		dst[di+stride] = src[i+1]
		dst[di+2*stride] = src[i+2]
		dst[di+3*stride] = src[i+3]
		di += 4 * stride
	}
	for ; i < len(src); i++ {
		dst[di] = src[i]
		di += stride
	}
}
