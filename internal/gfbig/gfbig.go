// Package gfbig implements large binary Galois fields GF(2^m) for the
// asymmetric-cryptography (ECC_l) side of the paper: m up to 571 covering
// all NIST binary curves, with sparse trinomial/pentanomial reduction.
//
// Elements are little-endian vectors of 32-bit words — the paper's memory
// layout ("8 words with 32 bits/word" for GF(2^233)). Multiplication is
// built from 32x32 carry-free partial products, the software model of the
// processor's single-cycle gf32bMult instruction, either schoolbook or
// with the two-level Karatsuba optimization of Section 3.3.4. Squaring
// spreads bits with zeros (Fig. 5c) so it needs no partial products at
// all beyond the spread. Inversion uses Itoh-Tsujii addition chains with
// an extended-Euclid cross-check.
package gfbig

import (
	"errors"
	"fmt"
	"math/bits"
)

var (
	errValueTooWide  = errors.New("gfbig: value exceeds field size")
	errDegreeTooHigh = errors.New("gfbig: value has degree >= field degree")
)

// WordBits is the machine word size of the modeled datapath.
const WordBits = 32

// Elem is a field element: little-endian 32-bit words, exactly Field.Words
// long. The caller must keep elements normalized (bits >= m clear);
// all Field methods return normalized elements.
type Elem []uint32

// Field is GF(2^m) with a sparse irreducible reduction polynomial
// x^m + x^e1 + ... + 1.
type Field struct {
	m     int
	words int
	exps  []int  // the non-leading exponents, descending, last is 0
	name  string // optional label, e.g. "K-233 field"
}

// New constructs GF(2^m) with reduction polynomial x^m + x^e1 + ... + x^ek,
// where exps lists e1..ek (each < m, must include 0 for the +1 term).
// Irreducibility is the caller's responsibility for non-NIST polynomials;
// the standard constructors below are all verified irreducible.
func New(m int, exps ...int) (*Field, error) {
	if m < 2 || m > 1024 {
		return nil, fmt.Errorf("gfbig: m=%d out of range", m)
	}
	if len(exps) == 0 {
		return nil, fmt.Errorf("gfbig: reduction polynomial needs low-order terms")
	}
	hasZero := false
	prev := m
	for _, e := range exps {
		if e >= prev {
			return nil, fmt.Errorf("gfbig: exponents must be descending and < m")
		}
		if e == 0 {
			hasZero = true
		}
		if e < 0 {
			return nil, fmt.Errorf("gfbig: negative exponent")
		}
		prev = e
	}
	if !hasZero {
		return nil, fmt.Errorf("gfbig: polynomial must include the constant term")
	}
	return &Field{m: m, words: (m + WordBits - 1) / WordBits, exps: exps}, nil
}

// MustNew is New but panics on error.
func MustNew(m int, exps ...int) *Field {
	f, err := New(m, exps...)
	if err != nil {
		panic(err)
	}
	return f
}

// NIST binary fields (FIPS 186 / SEC 2 reduction polynomials).
func F163() *Field { return named(163, "GF(2^163)", 7, 6, 3, 0) }

// F233 is the field of the paper's flagship curve K-233: x^233 + x^74 + 1.
func F233() *Field { return named(233, "GF(2^233)", 74, 0) }
func F283() *Field { return named(283, "GF(2^283)", 12, 7, 5, 0) }
func F409() *Field { return named(409, "GF(2^409)", 87, 0) }
func F571() *Field { return named(571, "GF(2^571)", 10, 5, 2, 0) }

func named(m int, name string, exps ...int) *Field {
	f := MustNew(m, exps...)
	f.name = name
	return f
}

// M returns the extension degree.
func (f *Field) M() int { return f.m }

// Words returns the element length in 32-bit words.
func (f *Field) Words() int { return f.words }

// Exponents returns the non-leading exponents of the reduction polynomial.
func (f *Field) Exponents() []int { return append([]int(nil), f.exps...) }

// String implements fmt.Stringer.
func (f *Field) String() string {
	if f.name != "" {
		return f.name
	}
	s := fmt.Sprintf("x^%d", f.m)
	for _, e := range f.exps {
		switch e {
		case 0:
			s += "+1"
		case 1:
			s += "+x"
		default:
			s += fmt.Sprintf("+x^%d", e)
		}
	}
	return "GF(2)[" + s + "]"
}

// Zero returns a new zero element.
func (f *Field) Zero() Elem { return make(Elem, f.words) }

// One returns the element 1.
func (f *Field) One() Elem {
	e := f.Zero()
	e[0] = 1
	return e
}

// FromUint64 returns the element with the low 64 bits set from v.
func (f *Field) FromUint64(v uint64) Elem {
	e := f.Zero()
	e[0] = uint32(v)
	if f.words > 1 {
		e[1] = uint32(v >> 32)
	}
	return e
}

// Copy returns a fresh copy of a.
func (f *Field) Copy(a Elem) Elem { return append(Elem(nil), a...) }

// IsZero reports whether a == 0.
func (f *Field) IsZero(a Elem) bool {
	for _, w := range a {
		if w != 0 {
			return false
		}
	}
	return true
}

// Equal reports whether a == b.
func (f *Field) Equal(a, b Elem) bool {
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// Bit returns bit i of a.
func (f *Field) Bit(a Elem, i int) uint32 {
	if i < 0 || i >= f.words*WordBits {
		return 0
	}
	return a[i/WordBits] >> (i % WordBits) & 1
}

// Degree returns the degree of a as a polynomial, or -1 for zero.
func Degree(a []uint32) int {
	for i := len(a) - 1; i >= 0; i-- {
		if a[i] != 0 {
			return i*WordBits + 31 - bits.LeadingZeros32(a[i])
		}
	}
	return -1
}

// Add returns a + b (XOR). It allocates the result.
func (f *Field) Add(a, b Elem) Elem {
	out := make(Elem, f.words)
	for i := range out {
		out[i] = a[i] ^ b[i]
	}
	return out
}

// Clmul32 returns the 64-bit carry-free product of two 32-bit words: the
// functional model of one gf32bMult partial product.
func Clmul32(a, b uint32) uint64 {
	var r uint64
	bb := uint64(b)
	for a != 0 {
		i := bits.TrailingZeros32(a)
		r ^= bb << i
		a &= a - 1
	}
	return r
}

// MulFull returns the unreduced 2*Words-word carry-free product of a and b
// by the schoolbook method: Words^2 32x32 partial products, exactly the
// paper's "Full Product" phase (64 gf32bMult calls for GF(2^233)).
func (f *Field) MulFull(a, b Elem) []uint32 {
	out := make([]uint32, 2*f.words)
	for i, ai := range a {
		if ai == 0 {
			continue
		}
		for j, bj := range b {
			if bj == 0 {
				continue
			}
			p := Clmul32(ai, bj)
			out[i+j] ^= uint32(p)
			out[i+j+1] ^= uint32(p >> 32)
		}
	}
	return out
}

// Reduce reduces a full (2*Words) product modulo the field polynomial and
// returns a normalized element — the paper's "Polynomial Reduction" phase,
// cheap because the NIST polynomials are sparse.
func (f *Field) Reduce(full []uint32) Elem {
	r := append([]uint32(nil), full...)
	// Each pass replaces the highest word's bits >= m by strictly lower
	// contributions (every exponent e < m), so the top bit strictly
	// decreases and the loop terminates (see reduceInPlace).
	f.reduceInPlace(r)
	out := make(Elem, f.words)
	copy(out, r[:f.words])
	return out
}

// xorShifted xors the 32-bit word w into r at bit offset pos (pos >= 0).
func xorShifted(r []uint32, w uint32, pos int) {
	iw, sh := pos/WordBits, pos%WordBits
	r[iw] ^= w << sh
	if sh != 0 && iw+1 < len(r) {
		r[iw+1] ^= w >> (WordBits - sh)
	}
}

// Mul returns the reduced product a*b: the schoolbook full product +
// Reduce (the paper's "direct product" method). It is the reference the
// allocation-free MulTo (Karatsuba) is checked against.
func (f *Field) Mul(a, b Elem) Elem { return f.Reduce(f.MulFull(a, b)) }

// SqrFull returns the unreduced square of a: each word's bits spread with
// interleaved zeros (Fig. 5c), needing no general partial products.
func (f *Field) SqrFull(a Elem) []uint32 {
	out := make([]uint32, 2*f.words)
	for i, w := range a {
		lo, hi := spread32(w)
		out[2*i] = lo
		out[2*i+1] = hi
	}
	return out
}

// Sqr returns a^2 reduced.
func (f *Field) Sqr(a Elem) Elem { return f.Reduce(f.SqrFull(a)) }

// spreadTab maps a byte to its zero-interleaved 16-bit spread.
var spreadTab = func() [256]uint16 {
	var t [256]uint16
	for v := 0; v < 256; v++ {
		var s uint16
		for i := 0; i < 8; i++ {
			if v>>i&1 == 1 {
				s |= 1 << (2 * i)
			}
		}
		t[v] = s
	}
	return t
}()

func spread32(w uint32) (lo, hi uint32) {
	lo = uint32(spreadTab[w&0xFF]) | uint32(spreadTab[w>>8&0xFF])<<16
	hi = uint32(spreadTab[w>>16&0xFF]) | uint32(spreadTab[w>>24&0xFF])<<16
	return
}

// Pow returns a^e for a non-negative big-endian bit exponent given as a
// uint64 (sufficient for the addition chains used internally and tests).
func (f *Field) Pow(a Elem, e uint64) Elem {
	r := f.One()
	base := f.Copy(a)
	for e > 0 {
		if e&1 == 1 {
			r = f.Mul(r, base)
		}
		base = f.Sqr(base)
		e >>= 1
	}
	return r
}

// Inv returns the multiplicative inverse of a by the Itoh-Tsujii addition
// chain — the same method the paper hand-codes for GF(2^233) (Section
// 3.3.4). It panics if a is zero.
func (f *Field) Inv(a Elem) Elem {
	inv, _ := f.InvOps(a)
	return inv
}

// InvTrace reports the field-operation counts of an Itoh-Tsujii inversion.
type InvTrace struct {
	Muls    int // full field multiplications
	Squares int // field squarings
}

// InvOps is Inv, additionally reporting the multiplication/squaring counts
// (for GF(2^233): 10 multiplications and 232 squarings).
func (f *Field) InvOps(a Elem) (Elem, InvTrace) {
	if f.IsZero(a) {
		panic("gfbig: inverse of zero")
	}
	var tr InvTrace
	sq := func(x Elem, k int) Elem {
		for i := 0; i < k; i++ {
			x = f.Sqr(x)
			tr.Squares++
		}
		return x
	}
	mul := func(x, y Elem) Elem {
		tr.Muls++
		return f.Mul(x, y)
	}
	// beta_e = a^(2^e - 1); binary addition chain on e = m-1.
	e := f.m - 1
	hb := 63 - bits.LeadingZeros64(uint64(e))
	beta := f.Copy(a)
	cur := 1
	for i := hb - 1; i >= 0; i-- {
		beta = mul(sq(f.Copy(beta), cur), beta)
		cur *= 2
		if e>>i&1 == 1 {
			beta = mul(sq(beta, 1), a)
			cur++
		}
	}
	return sq(beta, 1), tr
}

// InvEuclid computes a^-1 with the binary extended Euclidean algorithm,
// used as an independent cross-check of the ITA chain. It panics if a is
// zero.
func (f *Field) InvEuclid(a Elem) Elem {
	if f.IsZero(a) {
		panic("gfbig: inverse of zero")
	}
	w := f.words + 1
	// r0 = field polynomial, r1 = a.
	r0 := make([]uint32, 2*w)
	r0[f.m/WordBits] |= 1 << (f.m % WordBits)
	for _, e := range f.exps {
		r0[e/WordBits] ^= 1 << (e % WordBits)
	}
	r1 := make([]uint32, 2*w)
	copy(r1, a)
	s0 := make([]uint32, 2*w)
	s1 := make([]uint32, 2*w)
	s1[0] = 1
	for Degree(r1) >= 0 {
		d := Degree(r0) - Degree(r1)
		if d < 0 {
			r0, r1 = r1, r0
			s0, s1 = s1, s0
			continue
		}
		xorShiftedVec(r0, r1, d)
		xorShiftedVec(s0, s1, d)
	}
	// gcd is in r0 (== 1); s0 * a == 1 mod p, deg(s0) may reach ~2m.
	out := f.Reduce(s0[:2*f.words])
	return out
}

// xorShiftedVec computes dst ^= src << k (bitwise polynomial shift).
func xorShiftedVec(dst, src []uint32, k int) {
	iw, sh := k/WordBits, k%WordBits
	if sh == 0 {
		for i := 0; i+iw < len(dst) && i < len(src); i++ {
			dst[i+iw] ^= src[i]
		}
		return
	}
	var carry uint32
	for i := 0; i+iw < len(dst) && i < len(src); i++ {
		dst[i+iw] ^= src[i]<<sh | carry
		carry = src[i] >> (WordBits - sh)
	}
	if len(src)+iw < len(dst) {
		dst[len(src)+iw] ^= carry
	}
}

// Div returns a/b. It panics if b is zero.
func (f *Field) Div(a, b Elem) Elem { return f.Mul(a, f.Inv(b)) }

// SetBytes interprets big-endian bytes as an element, reducing bits >= m
// away. It returns an error if the value has degree >= m (strict mode is
// what ECC key parsing wants).
func (f *Field) SetBytes(b []byte) (Elem, error) {
	e := f.Zero()
	if err := f.SetBytesInto(e, b); err != nil {
		return nil, err
	}
	return e, nil
}

// Bytes returns the big-endian fixed-length (ceil(m/8) bytes) encoding of a.
func (f *Field) Bytes(a Elem) []byte {
	n := (f.m + 7) / 8
	out := make([]byte, n)
	for i := 0; i < n; i++ {
		out[n-1-i] = byte(a[i/4] >> (8 * (i % 4)))
	}
	return out
}

// SetHex parses a big-endian hex string (no 0x prefix) into an element.
func (f *Field) SetHex(s string) (Elem, error) {
	if len(s)%2 == 1 {
		s = "0" + s
	}
	b := make([]byte, len(s)/2)
	for i := 0; i < len(b); i++ {
		hi, ok1 := hexVal(s[2*i])
		lo, ok2 := hexVal(s[2*i+1])
		if !ok1 || !ok2 {
			return nil, fmt.Errorf("gfbig: bad hex %q", s)
		}
		b[i] = hi<<4 | lo
	}
	return f.SetBytes(b)
}

func hexVal(c byte) (byte, bool) {
	switch {
	case c >= '0' && c <= '9':
		return c - '0', true
	case c >= 'a' && c <= 'f':
		return c - 'a' + 10, true
	case c >= 'A' && c <= 'F':
		return c - 'A' + 10, true
	}
	return 0, false
}

// Hex returns the big-endian hex encoding of a (lower case, fixed width).
func (f *Field) Hex(a Elem) string {
	b := f.Bytes(a)
	const digits = "0123456789abcdef"
	out := make([]byte, 2*len(b))
	for i, v := range b {
		out[2*i] = digits[v>>4]
		out[2*i+1] = digits[v&0xF]
	}
	return string(out)
}
