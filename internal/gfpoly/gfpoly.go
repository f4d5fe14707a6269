// Package gfpoly implements polynomials with coefficients in a small binary
// Galois field (repro/internal/gf). It provides the polynomial algebra the
// BCH and Reed-Solomon codecs are built on: arithmetic, Horner evaluation
// (the paper's syndrome recursion), formal derivatives (Forney's algorithm)
// and exhaustive root finding (Chien search).
//
// The coefficient loops run on gf.Kernels, so each call is served by
// the tier the field's kernels are bound to (the product table for
// m <= 8, scalar above, scalar everywhere under GFP_KERNEL_TIER=scalar);
// results are bit-exact regardless of tier (see docs/GF.md).
package gfpoly

import (
	"fmt"
	"strings"

	"repro/internal/gf"
)

// Poly is a polynomial over a Galois field. Coeffs[i] is the coefficient of
// x^i. The zero polynomial is represented by an empty (or all-zero)
// coefficient slice. A Poly is immutable by convention: operations return
// new polynomials.
type Poly struct {
	F      *gf.Field
	Coeffs []gf.Elem
}

// New returns the polynomial with the given coefficients (index = power).
// Trailing zero coefficients are trimmed.
func New(f *gf.Field, coeffs ...gf.Elem) Poly {
	p := Poly{F: f, Coeffs: append([]gf.Elem(nil), coeffs...)}
	return p.trim()
}

// Zero returns the zero polynomial.
func Zero(f *gf.Field) Poly { return Poly{F: f} }

// One returns the constant polynomial 1.
func One(f *gf.Field) Poly { return New(f, 1) }

// Mono returns c*x^deg.
func Mono(f *gf.Field, c gf.Elem, deg int) Poly {
	if c == 0 {
		return Zero(f)
	}
	coeffs := make([]gf.Elem, deg+1)
	coeffs[deg] = c
	return Poly{F: f, Coeffs: coeffs}
}

func (p Poly) trim() Poly {
	n := len(p.Coeffs)
	for n > 0 && p.Coeffs[n-1] == 0 {
		n--
	}
	p.Coeffs = p.Coeffs[:n]
	return p
}

// Degree returns the degree of p, or -1 for the zero polynomial.
func (p Poly) Degree() int {
	for i := len(p.Coeffs) - 1; i >= 0; i-- {
		if p.Coeffs[i] != 0 {
			return i
		}
	}
	return -1
}

// IsZero reports whether p is the zero polynomial.
func (p Poly) IsZero() bool { return p.Degree() < 0 }

// Coeff returns the coefficient of x^i (zero beyond the stored length).
func (p Poly) Coeff(i int) gf.Elem {
	if i < 0 || i >= len(p.Coeffs) {
		return 0
	}
	return p.Coeffs[i]
}

// Lead returns the leading coefficient (0 for the zero polynomial).
func (p Poly) Lead() gf.Elem {
	d := p.Degree()
	if d < 0 {
		return 0
	}
	return p.Coeffs[d]
}

// Clone returns a deep copy of p.
func (p Poly) Clone() Poly {
	return Poly{F: p.F, Coeffs: append([]gf.Elem(nil), p.Coeffs...)}
}

// Add returns p + q (== p - q in characteristic 2).
func (p Poly) Add(q Poly) Poly {
	n := len(p.Coeffs)
	if len(q.Coeffs) > n {
		n = len(q.Coeffs)
	}
	out := make([]gf.Elem, n)
	copy(out, p.Coeffs)
	if len(q.Coeffs) > 0 {
		q.F.Kernels().XorSlice(out, q.Coeffs)
	}
	return Poly{F: p.F, Coeffs: out}.trim()
}

// Scale returns c * p.
func (p Poly) Scale(c gf.Elem) Poly {
	if c == 0 {
		return Zero(p.F)
	}
	out := make([]gf.Elem, len(p.Coeffs))
	p.F.Kernels().MulConstSlice(out, p.Coeffs, c)
	return Poly{F: p.F, Coeffs: out}.trim()
}

// Mul returns p * q by schoolbook convolution, one bulk
// multiply-accumulate row (gf.Kernels.MulConstAddSlice) per nonzero
// coefficient of p.
func (p Poly) Mul(q Poly) Poly {
	if p.IsZero() || q.IsZero() {
		return Zero(p.F)
	}
	k := p.F.Kernels()
	out := make([]gf.Elem, p.Degree()+q.Degree()+2)
	qc := q.Coeffs[:q.Degree()+1] // tolerate untrimmed inputs
	for i, a := range p.Coeffs[:p.Degree()+1] {
		if a == 0 {
			continue
		}
		k.MulConstAddSlice(out[i:i+len(qc)], qc, a)
	}
	return Poly{F: p.F, Coeffs: out}.trim()
}

// MulX returns p * x^k (shift up by k).
func (p Poly) MulX(k int) Poly {
	if p.IsZero() {
		return p
	}
	out := make([]gf.Elem, len(p.Coeffs)+k)
	copy(out[k:], p.Coeffs)
	return Poly{F: p.F, Coeffs: out}
}

// DivMod returns the quotient and remainder of p / q. It panics if q is zero.
func (p Poly) DivMod(q Poly) (quo, rem Poly) {
	dq := q.Degree()
	if dq < 0 {
		panic("gfpoly: division by zero polynomial")
	}
	r := append([]gf.Elem(nil), p.Coeffs...)
	dr := p.Degree()
	if dr < dq {
		return Zero(p.F), p.Clone().trim()
	}
	quoC := make([]gf.Elem, dr-dq+1)
	invLead := p.F.Inv(q.Coeffs[dq])
	k := p.F.Kernels()
	for d := dr; d >= dq; d-- {
		if r[d] == 0 {
			continue
		}
		c := p.F.Mul(r[d], invLead)
		quoC[d-dq] = c
		k.MulConstAddSlice(r[d-dq:d+1], q.Coeffs[:dq+1], c)
	}
	return Poly{F: p.F, Coeffs: quoC}.trim(), Poly{F: p.F, Coeffs: r}.trim()
}

// Mod returns p mod q.
func (p Poly) Mod(q Poly) Poly {
	_, r := p.DivMod(q)
	return r
}

// ModXn returns p mod x^n (truncation to the n lowest coefficients), the
// operation used to form the error evaluator Omega = S*Lambda mod x^2t.
func (p Poly) ModXn(n int) Poly {
	if len(p.Coeffs) <= n {
		return p.Clone().trim()
	}
	return Poly{F: p.F, Coeffs: append([]gf.Elem(nil), p.Coeffs[:n]...)}.trim()
}

// Eval evaluates p at x using Horner's rule, the recursion the paper's
// syndrome kernel implements (S_{i,j} = S_{i,j-1}*a^i + R_{n-j}). The
// loop runs through the field's bulk kernels (one table lookup per
// coefficient instead of Field.Mul's two plus a branch).
func (p Poly) Eval(x gf.Elem) gf.Elem {
	if len(p.Coeffs) == 0 {
		return 0
	}
	return p.F.Kernels().EvalSlice(p.Coeffs, x)
}

// Derivative returns the formal derivative of p. In characteristic 2 the
// even-power terms vanish and odd powers drop to the even power below, so
// the derivative has only even-power terms.
func (p Poly) Derivative() Poly {
	if p.Degree() < 1 {
		return Zero(p.F)
	}
	out := make([]gf.Elem, p.Degree())
	for i := 1; i < len(p.Coeffs); i += 2 {
		out[i-1] = p.Coeffs[i]
	}
	return Poly{F: p.F, Coeffs: out}.trim()
}

// Roots returns all field elements r with p(r) == 0, in increasing numeric
// order, by exhaustive evaluation over the whole field — the software analogue
// of the Chien search.
func (p Poly) Roots() []gf.Elem {
	var roots []gf.Elem
	if p.IsZero() {
		return roots
	}
	for a := 0; a < p.F.Order(); a++ {
		if p.Eval(gf.Elem(a)) == 0 {
			roots = append(roots, gf.Elem(a))
		}
	}
	return roots
}

// GCD returns the monic greatest common divisor of p and q.
func GCD(p, q Poly) Poly {
	a, b := p.Clone().trim(), q.Clone().trim()
	for !b.IsZero() {
		a, b = b, a.Mod(b)
	}
	if a.IsZero() {
		return a
	}
	return a.Scale(a.F.Inv(a.Lead()))
}

// Equal reports whether p and q have identical coefficients.
func (p Poly) Equal(q Poly) bool {
	dp, dq := p.Degree(), q.Degree()
	if dp != dq {
		return false
	}
	for i := 0; i <= dp; i++ {
		if p.Coeffs[i] != q.Coeffs[i] {
			return false
		}
	}
	return true
}

// String renders the polynomial with hexadecimal coefficients, highest
// degree first, e.g. "x^2 + 3*x + 1".
func (p Poly) String() string {
	d := p.Degree()
	if d < 0 {
		return "0"
	}
	var parts []string
	for i := d; i >= 0; i-- {
		c := p.Coeffs[i]
		if c == 0 {
			continue
		}
		var term string
		switch {
		case i == 0:
			term = fmt.Sprintf("%#x", uint16(c))
		case i == 1 && c == 1:
			term = "x"
		case i == 1:
			term = fmt.Sprintf("%#x*x", uint16(c))
		case c == 1:
			term = fmt.Sprintf("x^%d", i)
		default:
			term = fmt.Sprintf("%#x*x^%d", uint16(c), i)
		}
		parts = append(parts, term)
	}
	return strings.Join(parts, " + ")
}
