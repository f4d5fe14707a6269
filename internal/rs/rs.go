// Package rs implements Reed-Solomon encoding and decoding over GF(2^m),
// following the decoder datapath of the paper's Fig. 1(b): syndrome
// calculation, the Berlekamp-Massey algorithm, Chien search and Forney's
// algorithm. Errors-and-erasures decoding and shortened codes are supported.
//
// The paper's flagship configuration is RS(255,239,8) over GF(2^8); any
// (n,k) with n <= 2^m-1 and even n-k works, with an arbitrary irreducible
// field polynomial and an arbitrary first consecutive generator root —
// precisely the flexibility the GF processor's configuration register
// provides in hardware.
//
// The hot paths ride gf.Kernels. EncodeTo runs the generator's packed
// LFSR bank. DecodeTo takes its syndromes from the same bank: fed the
// whole received word it leaves R(x) = r(x)·x^(n-k) mod g(x), which is
// zero exactly for codewords, and otherwise the 2t syndromes are R at
// the generator roots times a constant per root. The Chien search is
// one gf.Kernels.ChienRoots call over all n codeword points, and a
// correction is checked by linearity: the corrected word's syndromes
// vanish exactly when the located errors' own syndromes equal the
// received word's. The serving implementation tier (the flat product
// table on GF(2^8)) is bound per op by a fixed rule and can be pinned
// process-wide with GFP_KERNEL_TIER; every tier is differentially
// verified against the scalar reference, so codewords are bit-exact
// regardless (see docs/GF.md).
//
// Concurrency: a *Code (and a *Interleaved wrapping it) is immutable
// after construction — the generator polynomial and the underlying
// gf.Field tables are only written by New — and every Encode/Decode call
// allocates its own working buffers. One shared instance may therefore
// serve any number of goroutines concurrently (see the -race test
// TestConcurrentEncodeDecodeSharedCode), which is what the worker pools
// of repro/internal/pipeline rely on.
package rs

import (
	"fmt"

	"repro/internal/gf"
	"repro/internal/gfpoly"
)

// Code is a Reed-Solomon code RS(n, k) over GF(2^m). Codewords are symbol
// slices of length n; index 0 is transmitted first and carries the
// highest-degree coefficient of the codeword polynomial.
type Code struct {
	F *gf.Field
	N int // codeword length in symbols (<= 2^m - 1)
	K int // information symbols
	T int // correctable symbol errors, (n-k)/2
	B int // exponent of the first consecutive root of the generator

	full int         // natural length 2^m - 1
	gen  gfpoly.Poly // generator polynomial, degree n-k

	// Hot-path precomputation (immutable after New).
	kern      *gf.Kernels // the field's bulk slice kernels
	genTop    []gf.Elem   // generator coefficients in transmission order: genTop[j] = gen.Coeff(n-k-1-j)
	enc       *gf.LFSR    // precomputed encoder feedback bank over genTop
	roots     []gf.Elem   // the 2t generator roots beta_j = alpha^(b+j)
	rootScale []gf.Elem   // beta_j^-(n-k), which turns R(beta_j) into the syndrome S_j
}

// New constructs RS(n, k) over the field f with first consecutive root
// alpha^1 (narrow sense). n may be shorter than 2^m-1 (a shortened code).
func New(f *gf.Field, n, k int) (*Code, error) { return NewWithFCR(f, n, k, 1) }

// NewWithFCR constructs RS(n, k) with generator roots alpha^b .. alpha^(b+n-k-1).
func NewWithFCR(f *gf.Field, n, k, b int) (*Code, error) {
	full := f.N()
	switch {
	case n < 3 || n > full:
		return nil, fmt.Errorf("rs: n=%d out of range [3,%d] for %v", n, full, f)
	case k <= 0 || k >= n:
		return nil, fmt.Errorf("rs: k=%d out of range (0,%d)", k, n)
	case (n-k)%2 != 0:
		return nil, fmt.Errorf("rs: n-k=%d must be even", n-k)
	}
	c := &Code{F: f, N: n, K: k, T: (n - k) / 2, B: b, full: full}
	// g(x) = prod_{i=b}^{b+2t-1} (x - alpha^i)
	g := gfpoly.One(f)
	for i := 0; i < 2*c.T; i++ {
		g = g.Mul(gfpoly.New(f, f.AlphaPow(b+i), 1))
	}
	c.gen = g
	c.kern = f.Kernels()
	nk := n - k
	c.genTop = make([]gf.Elem, nk)
	for j := 0; j < nk; j++ {
		c.genTop[j] = g.Coeff(nk - 1 - j)
	}
	c.enc = c.kern.NewLFSR(c.genTop)
	c.roots = make([]gf.Elem, 2*c.T)
	c.rootScale = make([]gf.Elem, 2*c.T)
	for j := range c.roots {
		c.roots[j] = f.AlphaPow(b + j)
		c.rootScale[j] = f.AlphaPow(-(b + j) * nk)
	}
	return c, nil
}

// Must is New but panics on error.
func Must(f *gf.Field, n, k int) *Code {
	c, err := New(f, n, k)
	if err != nil {
		panic(err)
	}
	return c
}

// Generator returns the generator polynomial g(x) of degree n-k.
func (c *Code) Generator() gfpoly.Poly { return c.gen.Clone() }

// Rate returns the code rate k/n.
func (c *Code) Rate() float64 { return float64(c.K) / float64(c.N) }

// String implements fmt.Stringer.
func (c *Code) String() string {
	return fmt.Sprintf("RS(%d,%d,%d)/%v", c.N, c.K, c.T, c.F)
}

// Encode systematically encodes k message symbols into an n-symbol
// codeword: the message occupies the first k positions, parity the last
// n-k. It returns an error if the message has the wrong length or contains
// out-of-field symbols.
func (c *Code) Encode(msg []gf.Elem) ([]gf.Elem, error) {
	return c.EncodeTo(make([]gf.Elem, c.N), msg)
}

// EncodeTo is Encode reusing a caller-owned n-symbol destination buffer:
// it performs no allocation. msg may alias dst[:k] (encode in place). The
// parity is computed by the precomputed LFSR feedback bank (gf.LFSR): one
// fused shift-XOR pass per message symbol, no multiplies in the loop —
// the software form of the paper's hard-wired encoder datapath. Returns
// dst.
func (c *Code) EncodeTo(dst, msg []gf.Elem) ([]gf.Elem, error) {
	if len(msg) != c.K {
		return nil, fmt.Errorf("rs: message length %d, want %d", len(msg), c.K)
	}
	if len(dst) != c.N {
		return nil, fmt.Errorf("rs: destination length %d, want %d", len(dst), c.N)
	}
	for i, s := range msg {
		if !c.F.Valid(s) {
			return nil, fmt.Errorf("rs: message symbol %d (%#x) outside %v", i, s, c.F)
		}
	}
	// c(x) = m(x)*x^(n-k) + (m(x)*x^(n-k) mod g(x)). The remainder is kept
	// in transmission order directly in the parity slots dst[k:], so
	// par[0] is the highest-degree remainder coefficient.
	par := dst[c.K:]
	for j := range par {
		par[j] = 0
	}
	c.enc.Run(par, msg)
	copy(dst, msg) // no-op when encoding in place
	return dst, nil
}

// encodeScalar is the symbol-at-a-time reference implementation of Encode,
// kept as the behavioral baseline the bulk path is property-tested and
// benchmarked against.
func (c *Code) encodeScalar(msg []gf.Elem) ([]gf.Elem, error) {
	if len(msg) != c.K {
		return nil, fmt.Errorf("rs: message length %d, want %d", len(msg), c.K)
	}
	nk := c.N - c.K
	rem := make([]gf.Elem, nk) // rem[j] = coefficient of x^j
	for i := 0; i < c.K; i++ {
		feedback := msg[i] ^ rem[nk-1]
		copy(rem[1:], rem[:nk-1])
		rem[0] = 0
		if feedback != 0 {
			for j := 0; j < nk; j++ {
				rem[j] ^= c.F.Mul(feedback, c.gen.Coeff(j))
			}
		}
	}
	out := make([]gf.Elem, c.N)
	copy(out, msg)
	for j := 0; j < nk; j++ {
		out[c.K+j] = rem[nk-1-j]
	}
	return out, nil
}

// Syndromes evaluates the 2t syndromes S_j = r(alpha^(b+j)) of the received
// word by Horner's rule — the paper's first (and unavoidable) decoding
// kernel. All syndromes zero means no detectable error.
func (c *Code) Syndromes(recv []gf.Elem) []gf.Elem {
	return c.SyndromesTo(make([]gf.Elem, 2*c.T), recv)
}

// SyndromesTo is Syndromes into a caller-owned 2t-element destination
// buffer: no allocation. The batched kernel runs four Horner accumulator
// chains per pass over the word (gf.Kernels.SyndromeSlice), mirroring the
// paper's 4-lane SIMD syndrome unit. Returns dst. DecodeTo, which has
// scratch for the remainder, takes the cheaper route of
// remainderSyndromes.
func (c *Code) SyndromesTo(dst []gf.Elem, recv []gf.Elem) []gf.Elem {
	c.kern.SyndromeSlice(dst, recv, c.roots)
	return dst
}

// remainderSyndromes sets dst to the 2t syndromes of recv through the
// encoder's bank and reports whether any is nonzero. Feeding the whole
// word through the bank leaves R(x) = r(x)·x^(n-k) mod g(x) in rem (len
// n-k). Every beta_j is a root of g, so R(beta_j) = r(beta_j)·beta_j^(n-k)
// and S_j = R(beta_j)·beta_j^-(n-k): one SyndromeSlice over the n-k
// remainder symbols instead of the n received ones. g is coprime to x,
// so R = 0 exactly when r is a codeword, i.e. when all 2t syndromes are
// zero; dst is then zeroed without evaluating anything.
func (c *Code) remainderSyndromes(dst, rem, recv []gf.Elem) bool {
	clear(rem)
	c.enc.Run(rem, recv)
	if AllZero(rem) {
		clear(dst)
		return false
	}
	c.kern.SyndromeSlice(dst, rem, c.roots)
	for j, s := range dst {
		dst[j] = c.F.Mul(s, c.rootScale[j])
	}
	return true
}

// syndromesScalar is the symbol-at-a-time reference implementation of
// Syndromes, kept as the behavioral baseline for tests and benchmarks.
func (c *Code) syndromesScalar(recv []gf.Elem) []gf.Elem {
	s := make([]gf.Elem, 2*c.T)
	for j := range s {
		x := c.F.AlphaPow(c.B + j)
		var acc gf.Elem
		for _, r := range recv {
			acc = c.F.Mul(acc, x) ^ r
		}
		s[j] = acc
	}
	return s
}

// AllZero reports whether every syndrome is zero.
func AllZero(s []gf.Elem) bool {
	for _, v := range s {
		if v != 0 {
			return false
		}
	}
	return true
}

// BerlekampMassey runs the Berlekamp-Massey algorithm on the syndrome
// sequence and returns the error-locator polynomial Lambda(x) with
// Lambda(0) = 1 and degree = number of errors (when correctable).
func (c *Code) BerlekampMassey(synd []gf.Elem) gfpoly.Poly {
	return gfpoly.BerlekampMassey(c.F, synd)
}

// ChienSearch finds the error positions encoded in Lambda: it returns the
// codeword indices (0-based, index 0 transmitted first) whose locators
// X = alpha^(n-1-i) satisfy Lambda(X^-1) = 0, by evaluating Lambda at every
// codeword point as the hardware Chien search does — here in one
// kernel call (see chienTo).
func (c *Code) ChienSearch(lambda gfpoly.Poly) []int {
	return c.chienTo(nil, lambda.Coeffs)
}

// chienTo appends to pos the codeword index of every root of the
// locator lam (lam[i] the coefficient of x^i) among the n points
// alpha^-p, in decreasing index order: gf.Kernels.ChienRoots reports
// the roots as increasing p, and point p locates index n-1-p. No
// allocation beyond pos's growth.
func (c *Code) chienTo(pos []int, lam []gf.Elem) []int {
	from := len(pos)
	pos = c.kern.ChienRoots(pos, lam, c.N)
	for i := from; i < len(pos); i++ {
		pos[i] = c.N - 1 - pos[i]
	}
	return pos
}

// errorsCancel reports whether adding the error values vals at the
// codeword indices positions turns a word whose syndromes are synd into
// a codeword. The syndrome map is linear, so the corrected word's
// syndromes are synd + S(e), and they vanish exactly when S(e) = synd,
// where S_j(e) = sum of e·X^(b+j) over the errors at locators
// X = alpha^(n-1-index): nu·2t products instead of a second pass over
// all n symbols. chk (len 2t) is scratch.
func (c *Code) errorsCancel(chk, synd []gf.Elem, positions []int, vals []gf.Elem) bool {
	copy(chk, synd)
	for i, idx := range positions {
		p := c.N - 1 - idx
		x := c.F.AlphaPow(p)
		v := c.F.Mul(vals[i], c.F.AlphaPow(p*c.B))
		for j := range chk {
			chk[j] ^= v
			v = c.F.Mul(v, x)
		}
	}
	return AllZero(chk)
}

// Forney computes the error values at the given codeword positions using
// Forney's algorithm: e = X^(1-b) * Omega(X^-1) / Lambda'(X^-1) where
// Omega = S(x)*Lambda(x) mod x^2t.
func (c *Code) Forney(synd []gf.Elem, lambda gfpoly.Poly, positions []int) ([]gf.Elem, error) {
	sPoly := gfpoly.New(c.F, synd...)
	omega := sPoly.Mul(lambda).ModXn(len(synd))
	dLambda := lambda.Derivative()
	vals := make([]gf.Elem, len(positions))
	for i, posIdx := range positions {
		p := c.N - 1 - posIdx
		xInv := c.F.AlphaPow(-p)
		den := dLambda.Eval(xInv)
		if den == 0 {
			return nil, fmt.Errorf("rs: Forney division by zero at position %d", posIdx)
		}
		e := c.F.Div(omega.Eval(xInv), den)
		// X^(1-b) factor generalizes to arbitrary first consecutive root.
		if c.B != 1 {
			e = c.F.Mul(e, c.F.AlphaPow(p*(1-c.B)))
		}
		vals[i] = e
	}
	return vals, nil
}

// DecodeResult carries the diagnostic output of a decode.
type DecodeResult struct {
	Corrected  []gf.Elem // the corrected codeword
	Message    []gf.Elem // the first k symbols of Corrected
	NumErrors  int       // symbol errors corrected
	NumErasure int       // erasures filled
	Positions  []int     // indices corrected
	Syndromes  []gf.Elem // syndromes of the received word
}

// Decode corrects up to t symbol errors in recv and returns the result.
// It returns an error when the word is uncorrectable (more than t errors
// detected). Every call allocates fresh buffers, so one *Code may decode
// on any number of goroutines; use DecodeTo with a per-worker DecodeBuf
// for the allocation-free hot path.
func (c *Code) Decode(recv []gf.Elem) (*DecodeResult, error) {
	return c.DecodeTo(nil, recv)
}

// DecodeBuf holds all scratch a decode needs: syndrome, Berlekamp-Massey,
// Chien and Forney working storage plus the DecodeResult itself. A buffer
// belongs to one goroutine at a time; reusing it across DecodeTo calls
// makes steady-state decoding allocation-free. The DecodeResult returned
// by DecodeTo points into the buffer and is invalidated by the next call.
type DecodeBuf struct {
	word      []gf.Elem // received word copy, corrected in place (len n)
	rem       []gf.Elem // the received word's remainder mod g (len n-k)
	synd      []gf.Elem // syndromes of the received word (len 2t)
	vsynd     []gf.Elem // linearity check: synd + S(e) (len 2t)
	lambda    []gf.Elem // BMA connection polynomial
	prev      []gf.Elem // BMA previous connection polynomial
	swap      []gf.Elem // BMA copy scratch
	omega     []gf.Elem // error evaluator S*Lambda mod x^2t (len 2t)
	dlam      []gf.Elem // formal derivative of lambda
	positions []int     // Chien search roots (cap 2t)
	vals      []gf.Elem // Forney error values (cap 2t)
	res       DecodeResult
}

// NewDecodeBuf allocates a decode buffer sized for this code.
func (c *Code) NewDecodeBuf() *DecodeBuf {
	t2 := 2 * c.T
	// The BMA polynomials can transiently exceed degree 2t before the
	// final trim; 2*(2t)+2 coefficients bound every intermediate.
	bl := 2*t2 + 2
	return &DecodeBuf{
		word:      make([]gf.Elem, c.N),
		rem:       make([]gf.Elem, c.N-c.K),
		synd:      make([]gf.Elem, t2),
		vsynd:     make([]gf.Elem, t2),
		lambda:    make([]gf.Elem, bl),
		prev:      make([]gf.Elem, bl),
		swap:      make([]gf.Elem, bl),
		omega:     make([]gf.Elem, t2),
		dlam:      make([]gf.Elem, t2),
		positions: make([]int, 0, t2),
		vals:      make([]gf.Elem, t2),
	}
}

// DecodeTo is Decode using caller-owned scratch: with a reused buf the
// whole syndrome → BMA → Chien → Forney → verify chain performs zero
// allocations, every bulk step running on the field's slice kernels. A
// nil buf allocates a fresh one (making DecodeTo(nil, recv) ≡ Decode).
// The returned DecodeResult and its slices point into buf and are only
// valid until the next DecodeTo call with the same buffer.
func (c *Code) DecodeTo(buf *DecodeBuf, recv []gf.Elem) (*DecodeResult, error) {
	if len(recv) != c.N {
		return nil, fmt.Errorf("rs: received length %d, want %d", len(recv), c.N)
	}
	// One OR over the word decides validity (the order is a power of
	// two); the loop naming the bad symbol runs only on failure.
	var or gf.Elem
	for _, s := range recv {
		or |= s
	}
	if !c.F.Valid(or) {
		for i, s := range recv {
			if !c.F.Valid(s) {
				return nil, fmt.Errorf("rs: received symbol %d (%#x) outside %v", i, s, c.F)
			}
		}
	}
	if buf == nil {
		buf = c.NewDecodeBuf()
	}
	word := buf.word
	copy(word, recv)
	synd := buf.synd
	res := &buf.res
	*res = DecodeResult{Corrected: word, Message: word[:c.K], Syndromes: synd}
	if !c.remainderSyndromes(synd, buf.rem, word) {
		return res, nil
	}

	nu := c.bmaTo(buf, synd)
	if 2*nu > 2*c.T {
		return nil, fmt.Errorf("rs: %d errors + %d erasures exceed capability t=%d", nu, 0, c.T)
	}
	lam := buf.lambda[:nu+1]

	// Chien search: Lambda at alpha^-p for every codeword power in one
	// kernel call. Lambda(0) = 1, so it has at most nu <= t roots and
	// positions never outgrows its 2t capacity.
	positions := c.chienTo(buf.positions[:0], lam)
	if len(positions) != nu {
		return nil, fmt.Errorf("rs: Chien search found %d roots for degree-%d locator (uncorrectable)", len(positions), nu)
	}

	// Forney: Omega = S*Lambda mod x^2t by bulk convolution rows, then
	// e = X^(1-b) * Omega(X^-1) / Lambda'(X^-1) at each located position.
	// Only Omega's low nu coefficients are formed: Lambda generates the
	// syndromes from its length on, so the coefficients of S*Lambda at
	// x^nu..x^(2t-1) are the final BMA discrepancies, all zero whenever
	// nu is that length. When the degree falls short of the length, no
	// codeword lies within t of the word, and the check below rejects
	// it whatever the values.
	omega := buf.omega[:nu]
	clear(omega)
	for j, s := range synd[:nu] {
		if s != 0 {
			c.kern.MulConstAddSlice(omega[j:], lam[:nu-j], s)
		}
	}
	dlam := buf.dlam[:nu]
	for i := range dlam {
		dlam[i] = 0
	}
	for i := 1; i <= nu; i += 2 {
		dlam[i-1] = lam[i]
	}
	vals := buf.vals[:len(positions)]
	for i, posIdx := range positions {
		p := c.N - 1 - posIdx
		xInv := c.F.AlphaPow(-p)
		den := c.kern.EvalSlice(dlam, xInv)
		if den == 0 {
			return nil, fmt.Errorf("rs: Forney division by zero at position %d", posIdx)
		}
		e := c.F.Div(c.kern.EvalSlice(omega, xInv), den)
		// X^(1-b) factor generalizes to arbitrary first consecutive root.
		if c.B != 1 {
			e = c.F.Mul(e, c.F.AlphaPow(p*(1-c.B)))
		}
		vals[i] = e
	}
	// Verify: the corrected word must have all-zero syndromes, checked
	// by linearity rather than by a second syndrome pass.
	if !c.errorsCancel(buf.vsynd, synd, positions, vals) {
		return nil, fmt.Errorf("rs: correction verification failed (uncorrectable word)")
	}
	for i, idx := range positions {
		word[idx] ^= vals[i]
	}
	res.NumErrors = nu
	res.Positions = positions
	return res, nil
}

// bmaTo runs Berlekamp-Massey in buf's scratch (no allocation) and
// returns the degree of the error locator left in buf.lambda. It mirrors
// gfpoly.BerlekampMassey exactly, with the polynomial update folded into
// one bulk multiply-accumulate row per discrepancy. ll and pl bound the
// live lengths of lambda and prev (every coefficient past them is zero,
// and pl <= ll throughout), so the rows and copies cover those
// coefficients rather than the whole 4t+2-coefficient scratch.
func (c *Code) bmaTo(buf *DecodeBuf, synd []gf.Elem) int {
	lambda, prev, swap := buf.lambda, buf.prev, buf.swap
	clear(lambda)
	clear(prev)
	lambda[0] = 1
	prev[0] = 1
	ll, pl := 1, 1
	l, m, b := 0, 1, gf.Elem(1)
	for n := 0; n < len(synd); n++ {
		// Discrepancy d = S_n + sum_{i=1..l} lambda_i * S_{n-i}.
		d := synd[n]
		for i := 1; i <= l; i++ {
			d ^= c.F.Mul(lambda[i], synd[n-i])
		}
		if d == 0 {
			m++
			continue
		}
		coef := c.F.Div(d, b)
		end := min(m+pl, len(lambda))
		if 2*l <= n {
			copy(swap, lambda[:ll])
			c.kern.MulConstAddSlice(lambda[m:end], prev[:end-m], coef)
			copy(prev, swap[:ll]) // pl <= ll, so prev is zero past ll
			pl = ll
			l = n + 1 - l
			b = d
			m = 1
		} else {
			c.kern.MulConstAddSlice(lambda[m:end], prev[:end-m], coef)
			m++
		}
		ll = max(ll, end)
	}
	deg := 0
	for i := ll - 1; i > 0; i-- {
		if lambda[i] != 0 {
			deg = i
			break
		}
	}
	return deg
}

// DecodeErasures corrects errors and erasures. erasures lists codeword
// indices known to be unreliable; a code can correct nu errors and rho
// erasures whenever 2*nu + rho <= n-k. The erased positions' current
// values are ignored.
func (c *Code) DecodeErasures(recv []gf.Elem, erasures []int) (*DecodeResult, error) {
	if len(recv) != c.N {
		return nil, fmt.Errorf("rs: received length %d, want %d", len(recv), c.N)
	}
	if len(erasures) > c.N-c.K {
		return nil, fmt.Errorf("rs: %d erasures exceed n-k=%d", len(erasures), c.N-c.K)
	}
	for i, s := range recv {
		if !c.F.Valid(s) {
			return nil, fmt.Errorf("rs: received symbol %d (%#x) outside %v", i, s, c.F)
		}
	}
	word := append([]gf.Elem(nil), recv...)
	for _, idx := range erasures {
		if idx < 0 || idx >= c.N {
			return nil, fmt.Errorf("rs: erasure index %d out of range", idx)
		}
		word[idx] = 0 // normalize erased symbols
	}
	synd := c.Syndromes(word)
	res := &DecodeResult{Corrected: word, Syndromes: synd}
	if AllZero(synd) && len(erasures) == 0 {
		res.Message = word[:c.K]
		return res, nil
	}

	// Erasure locator Gamma(x) = prod (1 - X_i x).
	gamma := gfpoly.One(c.F)
	for _, idx := range erasures {
		p := c.N - 1 - idx
		gamma = gamma.Mul(gfpoly.New(c.F, 1, c.F.AlphaPow(p)))
	}
	// Forney syndromes: the coefficients rho..2t-1 of S(x)*Gamma(x) form a
	// pure-error syndrome sequence of length 2t-rho (the erasure terms cancel
	// because Gamma vanishes at the erasure locators). BMA on that sequence
	// yields the error-only locator.
	rho := len(erasures)
	sPoly := gfpoly.New(c.F, synd...)
	tPoly := sPoly.Mul(gamma).ModXn(2 * c.T)
	tSynd := make([]gf.Elem, 2*c.T-rho)
	for i := range tSynd {
		tSynd[i] = tPoly.Coeff(i + rho)
	}
	lambda := gfpoly.BerlekampMassey(c.F, tSynd)
	nu := lambda.Degree()
	if 2*nu+len(erasures) > 2*c.T {
		return nil, fmt.Errorf("rs: %d errors + %d erasures exceed capability t=%d", nu, len(erasures), c.T)
	}

	// Errata locator Psi = Lambda * Gamma; roots give all corrupt positions.
	psi := lambda.Mul(gamma)
	positions := c.ChienSearch(psi)
	if len(positions) != psi.Degree() {
		return nil, fmt.Errorf("rs: Chien search found %d roots for degree-%d locator (uncorrectable)", len(positions), psi.Degree())
	}
	vals, err := c.Forney(synd, psi, positions)
	if err != nil {
		return nil, err
	}
	for i, idx := range positions {
		word[idx] ^= vals[i]
	}
	// Verify: corrected word must have all-zero syndromes.
	if !AllZero(c.Syndromes(word)) {
		return nil, fmt.Errorf("rs: correction verification failed (uncorrectable word)")
	}
	res.Corrected = word
	res.Message = word[:c.K]
	res.NumErrors = nu
	res.NumErasure = len(erasures)
	res.Positions = positions
	return res, nil
}

// EncodeBytes encodes a k-byte message for fields with m <= 8.
func (c *Code) EncodeBytes(msg []byte) ([]byte, error) {
	if c.F.M() > 8 {
		return nil, fmt.Errorf("rs: byte interface requires m <= 8")
	}
	sym := make([]gf.Elem, len(msg))
	for i, b := range msg {
		sym[i] = gf.Elem(b)
	}
	cw, err := c.Encode(sym)
	if err != nil {
		return nil, err
	}
	out := make([]byte, len(cw))
	for i, s := range cw {
		out[i] = byte(s)
	}
	return out, nil
}

// DecodeBytes decodes an n-byte received word for fields with m <= 8 and
// returns the corrected k-byte message.
func (c *Code) DecodeBytes(recv []byte) ([]byte, error) {
	if c.F.M() > 8 {
		return nil, fmt.Errorf("rs: byte interface requires m <= 8")
	}
	sym := make([]gf.Elem, len(recv))
	for i, b := range recv {
		sym[i] = gf.Elem(b)
	}
	res, err := c.Decode(sym)
	if err != nil {
		return nil, err
	}
	out := make([]byte, c.K)
	for i, s := range res.Message {
		out[i] = byte(s)
	}
	return out, nil
}
