package gfbig

// Allocation-free To-variants: the wide-field mirror of the bulk
// treatment internal/gf got in PR 3. Each worker owns a Scratch holding
// every temporary a multiply / square / reduce / invert needs — the
// full-product accumulator and the Karatsuba arena — so a steady-state
// ECDSA sign or ECDH derive performs zero heap allocations per request.
// MulTo runs the strategy MulStrategy names (strategy.go).

import "math/bits"

// Scratch is per-worker working memory for the To-variants. It is not
// safe for concurrent use; give each worker its own via NewScratch.
type Scratch struct {
	f    *Field
	full []uint32 // 2*words: full product accumulator
	kar  []uint32 // karatsuba recursion arena
	iva  Elem     // inversion: stable copy of the argument
	ivb  Elem     // inversion: beta accumulator
	ivt  Elem     // inversion: square-chain temporary
}

// NewScratch allocates working memory for this field's To-variants.
func (f *Field) NewScratch() *Scratch {
	w := f.words
	return &Scratch{
		f:    f,
		full: make([]uint32, 2*w),
		kar:  make([]uint32, karatsubaArenaSize(w, karatsubaLevels)),
		iva:  make(Elem, w),
		ivb:  make(Elem, w),
		ivt:  make(Elem, w),
	}
}

// Field returns the field this scratch was built for.
func (s *Scratch) Field() *Field { return s.f }

// AddTo sets dst = a + b (XOR). dst may alias either operand.
func (f *Field) AddTo(dst, a, b Elem) {
	for i := range dst {
		dst[i] = a[i] ^ b[i]
	}
}

// MulTo sets dst = a*b reduced, allocation-free. dst may alias a or b;
// the product is accumulated in s and copied out last.
func (f *Field) MulTo(dst, a, b Elem, s *Scratch) {
	f.mulFullInto(f.MulStrategy(), a, b, s)
	f.reduceInPlace(s.full)
	copy(dst, s.full[:f.words])
}

// SquareTo sets dst = a^2 reduced, allocation-free. dst may alias a.
func (f *Field) SquareTo(dst, a Elem, s *Scratch) {
	for i, w := range a {
		lo, hi := spread32(w)
		s.full[2*i] = lo
		s.full[2*i+1] = hi
	}
	f.reduceInPlace(s.full)
	copy(dst, s.full[:f.words])
}

// ReduceTo reduces a full (2*Words) product into dst without
// allocating. full is left unmodified.
func (f *Field) ReduceTo(dst Elem, full []uint32, s *Scratch) {
	copy(s.full, full)
	f.reduceInPlace(s.full[:len(full)])
	copy(dst, s.full[:f.words])
}

// InvTo sets dst = a^-1 via the Itoh-Tsujii chain (the same chain as
// Inv), allocation-free. dst may alias a. It panics if a is zero.
func (f *Field) InvTo(dst, a Elem, s *Scratch) {
	if f.IsZero(a) {
		panic("gfbig: inverse of zero")
	}
	acp, beta, tmp := s.iva, s.ivb, s.ivt
	copy(acp, a)
	copy(beta, acp)
	e := f.m - 1
	hb := 63 - bits.LeadingZeros64(uint64(e))
	cur := 1
	for i := hb - 1; i >= 0; i-- {
		copy(tmp, beta)
		for k := 0; k < cur; k++ {
			f.SquareTo(tmp, tmp, s)
		}
		f.MulTo(beta, tmp, beta, s)
		cur *= 2
		if e>>i&1 == 1 {
			f.SquareTo(beta, beta, s)
			f.MulTo(beta, beta, acp, s)
			cur++
		}
	}
	f.SquareTo(dst, beta, s)
}

// mulFullInto computes the unreduced product of a and b into s.full
// (cleared first) with the given strategy.
func (f *Field) mulFullInto(st Strategy, a, b Elem, s *Scratch) {
	for i := range s.full {
		s.full[i] = 0
	}
	if st == StratKaratsuba {
		karatsubaArena(s.full, a, b, karatsubaLevels, s.kar)
		return
	}
	schoolbookInto(s.full, a, b)
}

// reduceInPlace reduces r modulo the field polynomial in place; the
// normalized element ends in r[:words]. Same algorithm as Reduce.
func (f *Field) reduceInPlace(r []uint32) {
	for {
		top := Degree(r)
		if top < f.m {
			return
		}
		iw := top / WordBits
		lowBit := iw * WordBits
		if lowBit >= f.m {
			w := r[iw]
			r[iw] = 0
			base := lowBit - f.m
			for _, e := range f.exps {
				xorShifted(r, w, base+e)
			}
		} else {
			off := f.m - lowBit // 1..31
			wHigh := r[iw] >> off
			r[iw] ^= wHigh << off
			for _, e := range f.exps {
				xorShifted(r, wHigh, e)
			}
		}
	}
}

// karatsubaArenaSize returns the uint32 count karatsubaArena needs for
// n-word operands at the given recursion depth. Sibling recursions
// reuse the same sub-arena (they run sequentially), so only the widest
// child (hw = n - n/2 words) contributes.
func karatsubaArenaSize(n, levels int) int {
	if levels <= 0 || n < 2 {
		return 0
	}
	h := n / 2
	hw := n - h
	return 6*hw + 2*h + karatsubaArenaSize(hw, levels-1)
}

// karatsubaArena is karatsuba with all temporaries carved from arena
// instead of allocated: xors a*b into out (len(out) >= 2n).
func karatsubaArena(out []uint32, a, b []uint32, levels int, arena []uint32) {
	n := len(a)
	if levels <= 0 || n < 2 {
		schoolbookInto(out, a, b)
		return
	}
	h := n / 2
	hw := n - h
	a0, a1 := a[:h], a[h:]
	b0, b1 := b[:h], b[h:]
	as := arena[0:hw]
	bs := arena[hw : 2*hw]
	p0 := arena[2*hw : 2*hw+2*h]
	p2 := arena[2*hw+2*h : 2*hw+2*h+2*hw]
	p1 := arena[2*hw+2*h+2*hw : 2*hw+2*h+4*hw]
	rest := arena[6*hw+2*h:]
	copy(as, a1)
	copy(bs, b1)
	for i := 0; i < h; i++ {
		as[i] ^= a0[i]
		bs[i] ^= b0[i]
	}
	for i := range p0 {
		p0[i] = 0
	}
	for i := range p2 {
		p2[i] = 0
	}
	for i := range p1 {
		p1[i] = 0
	}
	karatsubaArena(p0, a0, b0, levels-1, rest)
	karatsubaArena(p2, a1, b1, levels-1, rest)
	karatsubaArena(p1, as, bs, levels-1, rest)
	for i, w := range p0 {
		out[i] ^= w
		out[i+h] ^= w
	}
	for i, w := range p1 {
		out[i+h] ^= w
	}
	for i, w := range p2 {
		out[i+h] ^= w
		out[i+2*h] ^= w
	}
}

// SetBytesInto parses big-endian bytes into the pre-allocated dst,
// with the same strict degree < m check as SetBytes.
func (f *Field) SetBytesInto(dst Elem, b []byte) error {
	for i := range dst {
		dst[i] = 0
	}
	if len(b)*8 > f.words*WordBits {
		for i := 0; i < len(b)-(f.words*WordBits+7)/8; i++ {
			if b[i] != 0 {
				return errValueTooWide
			}
		}
	}
	for i := 0; i < len(b); i++ {
		v := b[len(b)-1-i]
		if v == 0 {
			continue
		}
		if i/4 >= f.words {
			return errValueTooWide
		}
		dst[i/4] |= uint32(v) << (8 * (i % 4))
	}
	if Degree(dst) >= f.m {
		return errDegreeTooHigh
	}
	return nil
}

// BytesInto writes the big-endian fixed-length (ceil(m/8) bytes)
// encoding of a into dst, which must be exactly that long.
func (f *Field) BytesInto(dst []byte, a Elem) {
	n := (f.m + 7) / 8
	_ = dst[n-1]
	for i := 0; i < n; i++ {
		dst[n-1-i] = byte(a[i/4] >> (8 * (i % 4)))
	}
}
