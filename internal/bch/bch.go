// Package bch implements binary BCH encoding and decoding over GF(2^m),
// the decoder datapath of the paper's Fig. 1(a): syndrome calculation,
// error-locator computation (Berlekamp-Massey or the closed-form solver
// for t <= 3), Chien search, and bit-flip correction. Binary BCH needs no
// Forney step — the error magnitude is always 1.
//
// The paper's flagship configuration is BCH(31,11,5) over GF(2^5);
// BCH(63,51,2)-style codes appear in IEEE 802.15.6 body-area networks.
//
// Concurrency: a *Code is immutable after construction (generator,
// cosets and field tables are only written by New), and Encode, Decode
// and the syndrome/locator helpers keep all per-call state in local
// buffers, so one shared instance is safe for concurrent use by many
// goroutines — the contract the repro/internal/pipeline worker pools
// depend on.
package bch

import (
	"fmt"
	"sort"

	"repro/internal/gf"
	"repro/internal/gfpoly"
)

// Code is a binary BCH code of length n = 2^m - 1. Codewords are bit
// slices (each element 0 or 1); index 0 is transmitted first and carries
// the highest-degree coefficient of the codeword polynomial.
type Code struct {
	F *gf.Field // the locator field GF(2^m)
	N int       // codeword length in bits, 2^m - 1
	K int       // information bits
	T int       // designed error-correcting capability

	gen    gfpoly.Poly // generator polynomial with 0/1 coefficients
	cosets [][]int     // cyclotomic cosets used (mod 2^m-1)

	// Hot-path precomputation (immutable after New).
	kern     *gf.Kernels // the field's bulk slice kernels
	roots    []gf.Elem   // alpha^1 .. alpha^2t, the syndrome evaluation points
	oddRoots []gf.Elem   // alpha^1, alpha^3, ... — SyndromesFast evaluation points
}

// New constructs the narrow-sense binary BCH code of designed distance
// 2t+1 over the field f: n = 2^m-1 and k = n - deg(g) where g is the LCM
// of the minimal polynomials of alpha^1 .. alpha^2t.
func New(f *gf.Field, t int) (*Code, error) {
	n := f.N()
	if t < 1 || 2*t >= n {
		return nil, fmt.Errorf("bch: t=%d out of range for n=%d", t, n)
	}
	if !f.GeneratorIsX() {
		return nil, fmt.Errorf("bch: field polynomial %#x must be primitive", f.Poly())
	}
	c := &Code{F: f, N: n, T: t}
	// Collect cyclotomic cosets of 1..2t and build g = prod of minimal polys.
	seen := make([]bool, n)
	g := gfpoly.One(f)
	for i := 1; i <= 2*t; i++ {
		e := i % n
		if seen[e] {
			continue
		}
		coset := cyclotomicCoset(e, n)
		for _, j := range coset {
			seen[j] = true
		}
		c.cosets = append(c.cosets, coset)
		g = g.Mul(minimalPoly(f, coset))
	}
	c.gen = g
	c.K = n - g.Degree()
	if c.K <= 0 {
		return nil, fmt.Errorf("bch: t=%d leaves no information bits (deg g = %d)", t, g.Degree())
	}
	c.kern = f.Kernels()
	c.roots = make([]gf.Elem, 2*t)
	for j := range c.roots {
		c.roots[j] = f.AlphaPow(j + 1)
	}
	c.oddRoots = make([]gf.Elem, t)
	for i := range c.oddRoots {
		c.oddRoots[i] = f.AlphaPow(2*i + 1)
	}
	return c, nil
}

// Must is New but panics on error.
func Must(f *gf.Field, t int) *Code {
	c, err := New(f, t)
	if err != nil {
		panic(err)
	}
	return c
}

// NewParams constructs BCH(n,k,t) with n = 2^m-1, verifying that the
// narrow-sense construction with capability t yields exactly k information
// bits (e.g. (31,11,5), (63,51,2), (15,7,2)).
func NewParams(m, n, k, t int) (*Code, error) {
	f, err := gf.NewDefault(m)
	if err != nil {
		return nil, err
	}
	if n != f.N() {
		return nil, fmt.Errorf("bch: n=%d != 2^%d-1", n, m)
	}
	c, err := New(f, t)
	if err != nil {
		return nil, err
	}
	if c.K != k {
		return nil, fmt.Errorf("bch: construction gives k=%d, want %d", c.K, k)
	}
	return c, nil
}

// cyclotomicCoset returns the 2-cyclotomic coset of e modulo n, sorted.
func cyclotomicCoset(e, n int) []int {
	var coset []int
	j := e
	for {
		coset = append(coset, j)
		j = (2 * j) % n
		if j == e {
			break
		}
	}
	sort.Ints(coset)
	return coset
}

// minimalPoly returns the minimal polynomial of alpha^e over GF(2):
// prod_{j in coset} (x - alpha^j). All coefficients land in {0,1}.
func minimalPoly(f *gf.Field, coset []int) gfpoly.Poly {
	p := gfpoly.One(f)
	for _, j := range coset {
		p = p.Mul(gfpoly.New(f, f.AlphaPow(j), 1))
	}
	for _, c := range p.Coeffs {
		if c > 1 {
			panic("bch: minimal polynomial has non-binary coefficient")
		}
	}
	return p
}

// Generator returns the generator polynomial (binary coefficients).
func (c *Code) Generator() gfpoly.Poly { return c.gen.Clone() }

// GeneratorBits returns the generator as a bit slice, index = power of x.
func (c *Code) GeneratorBits() []byte {
	out := make([]byte, c.gen.Degree()+1)
	for i := range out {
		out[i] = byte(c.gen.Coeff(i))
	}
	return out
}

// Rate returns the code rate k/n.
func (c *Code) Rate() float64 { return float64(c.K) / float64(c.N) }

// String implements fmt.Stringer.
func (c *Code) String() string {
	return fmt.Sprintf("BCH(%d,%d,%d)/%v", c.N, c.K, c.T, c.F)
}

// Encode systematically encodes k message bits (values 0/1) into an n-bit
// codeword: message bits first, parity bits last.
func (c *Code) Encode(msg []byte) ([]byte, error) {
	if len(msg) != c.K {
		return nil, fmt.Errorf("bch: message length %d, want %d", len(msg), c.K)
	}
	nk := c.N - c.K
	rem := make([]byte, nk) // rem[j] = coefficient of x^j
	gbits := c.GeneratorBits()
	for i := 0; i < c.K; i++ {
		b := msg[i]
		if b > 1 {
			return nil, fmt.Errorf("bch: message bit %d has value %d", i, b)
		}
		feedback := b ^ rem[nk-1]
		copy(rem[1:], rem[:nk-1])
		rem[0] = 0
		if feedback == 1 {
			for j := 0; j < nk; j++ {
				rem[j] ^= gbits[j]
			}
		}
	}
	out := make([]byte, c.N)
	copy(out, msg)
	for j := 0; j < nk; j++ {
		out[c.K+j] = rem[nk-1-j]
	}
	return out, nil
}

// Syndromes evaluates the 2t syndromes S_i = r(alpha^i), i = 1..2t, of the
// received bit vector by Horner's rule. For binary codes the even
// syndromes obey S_{2i} = S_i^2 — the identity the hardware square
// primitive exploits; they are still all computed here so the decoder can
// detect inconsistencies.
func (c *Code) Syndromes(recv []byte) []gf.Elem {
	return c.SyndromesTo(make([]gf.Elem, 2*c.T), recv)
}

// SyndromesTo is Syndromes writing into caller scratch: dst must have
// length at least 2t and the filled prefix dst[:2t] is returned. Hot
// decode loops reuse one scratch slice across words and allocate
// nothing per call.
func (c *Code) SyndromesTo(dst []gf.Elem, recv []byte) []gf.Elem {
	if len(dst) < 2*c.T {
		panic(fmt.Sprintf("bch: syndrome scratch length %d, want >= %d", len(dst), 2*c.T))
	}
	s := dst[:2*c.T]
	c.kern.SyndromeBitSlice(s, recv, c.roots)
	return s
}

// syndromesScalar is the bit-at-a-time reference implementation of
// Syndromes, kept as the behavioral baseline for tests and benchmarks.
func (c *Code) syndromesScalar(recv []byte) []gf.Elem {
	s := make([]gf.Elem, 2*c.T)
	for j := range s {
		x := c.F.AlphaPow(j + 1)
		var acc gf.Elem
		for _, bit := range recv {
			acc = c.F.Mul(acc, x) ^ gf.Elem(bit)
		}
		s[j] = acc
	}
	return s
}

// SyndromesFast computes only the t odd syndromes directly and derives the
// even ones by squaring (S_2i = S_i^2), halving the Horner work — the
// optimization available to binary BCH.
func (c *Code) SyndromesFast(recv []byte) []gf.Elem {
	s := make([]gf.Elem, 2*c.T)
	odd := make([]gf.Elem, c.T)
	c.kern.SyndromeBitSlice(odd, recv, c.oddRoots)
	for i := 1; i <= 2*c.T; i++ {
		if i%2 == 0 {
			s[i-1] = c.F.Sqr(s[i/2-1])
		} else {
			s[i-1] = odd[(i-1)/2]
		}
	}
	return s
}

// ErrorLocator runs Berlekamp-Massey on the syndromes and returns the
// error-locator polynomial.
func (c *Code) ErrorLocator(synd []gf.Elem) gfpoly.Poly {
	return gfpoly.BerlekampMassey(c.F, synd)
}

// ClosedFormELP computes the error-locator polynomial for t <= 3 with
// Peterson's closed-form expressions — the "Closed Form ELP" kernel the
// paper cites in Fig. 1(a). It returns ok=false when the syndrome pattern
// is outside the closed form's reach (more than t errors, or t > 3).
func (c *Code) ClosedFormELP(synd []gf.Elem) (lambda gfpoly.Poly, ok bool) {
	f := c.F
	s1 := synd[0]
	var s3, s5 gf.Elem
	if len(synd) >= 3 {
		s3 = synd[2]
	}
	if len(synd) >= 5 {
		s5 = synd[4]
	}
	switch {
	case c.T == 1:
		if s1 == 0 {
			return gfpoly.One(f), true
		}
		return gfpoly.New(f, 1, s1), true
	case c.T == 2:
		if s1 == 0 && s3 == 0 {
			return gfpoly.One(f), true
		}
		if s1 == 0 {
			return gfpoly.Poly{}, false // odd pattern: >2 errors
		}
		if s3 == f.Pow(s1, 3) {
			// single error
			return gfpoly.New(f, 1, s1), true
		}
		sigma2 := f.Div(s3^f.Pow(s1, 3), s1)
		return gfpoly.New(f, 1, s1, sigma2), true
	case c.T == 3:
		if s1 == 0 && s3 == 0 && s5 == 0 {
			return gfpoly.One(f), true
		}
		if s1 != 0 && s3 == f.Pow(s1, 3) && s5 == f.Pow(s1, 5) {
			return gfpoly.New(f, 1, s1), true
		}
		d := f.Pow(s1, 3) ^ s3
		if s1 != 0 && d != 0 {
			num := f.Mul(f.Sqr(s1), s3) ^ s5
			sigma2 := f.Div(num, d)
			sigma3 := d ^ f.Mul(s1, sigma2)
			if sigma3 == 0 {
				// degenerates to two errors
				return gfpoly.New(f, 1, s1, sigma2), true
			}
			return gfpoly.New(f, 1, s1, sigma2, sigma3), true
		}
		if s1 == 0 && s3 != 0 {
			// sigma1 = 0, sigma2 = s5/s3, sigma3 = s3 (from Newton identities)
			return gfpoly.New(f, 1, 0, f.Div(s5, s3), s3), true
		}
		return gfpoly.Poly{}, false
	default:
		return gfpoly.Poly{}, false
	}
}

// ChienSearch returns the codeword bit indices located by Lambda (same
// locator convention as package rs).
func (c *Code) ChienSearch(lambda gfpoly.Poly) []int {
	var pos []int
	for p := 0; p < c.N; p++ {
		if lambda.Eval(c.F.AlphaPow(-p)) == 0 {
			pos = append(pos, c.N-1-p)
		}
	}
	return pos
}

// DecodeResult carries the diagnostic output of a decode.
type DecodeResult struct {
	Corrected []byte    // corrected codeword bits
	Message   []byte    // first k bits of Corrected
	NumErrors int       // bit errors corrected
	Positions []int     // indices flipped
	Syndromes []gf.Elem // syndromes of the received word
}

// Decode corrects up to t bit errors in recv. It returns an error for
// uncorrectable words.
func (c *Code) Decode(recv []byte) (*DecodeResult, error) {
	return c.decode(recv, false)
}

// DecodeClosedForm is Decode but uses the closed-form ELP solver (t <= 3)
// instead of Berlekamp-Massey, falling back to BMA when the closed form
// does not apply.
func (c *Code) DecodeClosedForm(recv []byte) (*DecodeResult, error) {
	return c.decode(recv, true)
}

func (c *Code) decode(recv []byte, closedForm bool) (*DecodeResult, error) {
	if len(recv) != c.N {
		return nil, fmt.Errorf("bch: received length %d, want %d", len(recv), c.N)
	}
	word := append([]byte(nil), recv...)
	synd := c.Syndromes(word)
	res := &DecodeResult{Corrected: word, Syndromes: synd}
	errFree := true
	for _, s := range synd {
		if s != 0 {
			errFree = false
			break
		}
	}
	if errFree {
		res.Message = word[:c.K]
		return res, nil
	}
	var lambda gfpoly.Poly
	if closedForm && c.T <= 3 {
		var ok bool
		lambda, ok = c.ClosedFormELP(synd)
		if !ok {
			lambda = c.ErrorLocator(synd)
		}
	} else {
		lambda = c.ErrorLocator(synd)
	}
	nu := lambda.Degree()
	if nu > c.T {
		return nil, fmt.Errorf("bch: locator degree %d exceeds t=%d (uncorrectable)", nu, c.T)
	}
	pos := c.ChienSearch(lambda)
	if len(pos) != nu {
		return nil, fmt.Errorf("bch: Chien found %d roots for degree-%d locator (uncorrectable)", len(pos), nu)
	}
	for _, p := range pos {
		word[p] ^= 1
	}
	// Verify the corrected word.
	for _, s := range c.Syndromes(word) {
		if s != 0 {
			return nil, fmt.Errorf("bch: correction verification failed (uncorrectable word)")
		}
	}
	res.Corrected = word
	res.Message = word[:c.K]
	res.NumErrors = nu
	res.Positions = pos
	return res, nil
}
