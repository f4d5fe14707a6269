package gfbig

// Allocation-free To-variants: the wide-field mirror of the bulk
// treatment internal/gf got in PR 3. Each worker owns a Scratch holding
// every temporary a multiply / square / reduce / invert needs — the
// schoolbook path's full-product accumulator and the inversion chain's
// registers; the hwclmul kernel keeps its product in its own stack
// frame — so a steady-state ECDSA sign or ECDH derive performs zero
// heap allocations per request. MulTo, SquareTo and InvTo run the
// strategy MulStrategy names (strategy.go).

import "math/bits"

// Scratch is per-worker working memory for the To-variants. It is not
// safe for concurrent use; give each worker its own via NewScratch.
type Scratch struct {
	f    *Field
	full []uint32 // 2*words: schoolbook full product accumulator
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
// the product is accumulated apart from dst and written to it last.
func (f *Field) MulTo(dst, a, b Elem, s *Scratch) { f.mulTo(f.MulStrategy(), dst, a, b, s) }

// SquareTo sets dst = a^2 reduced, allocation-free. dst may alias a.
func (f *Field) SquareTo(dst, a Elem, s *Scratch) { f.squareTo(f.MulStrategy(), dst, a, s) }

// InvTo sets dst = a^-1 via the Itoh-Tsujii chain (the same chain as
// Inv), allocation-free. dst may alias a. It panics if a is zero.
func (f *Field) InvTo(dst, a Elem, s *Scratch) { f.invTo(f.MulStrategy(), dst, a, s) }

// mulTo is MulTo on the given strategy.
func (f *Field) mulTo(st Strategy, dst, a, b Elem, s *Scratch) {
	if st == StratHWClmul {
		_, _, _ = dst[f.words-1], a[f.words-1], b[f.words-1] // the kernel reads and writes f.words words of each
		clmulFold(&dst[0], &a[0], &b[0], f.fold)
		return
	}
	for i := range s.full {
		s.full[i] = 0
	}
	schoolbookInto(s.full, a, b)
	f.reduceInPlace(s.full)
	copy(dst, s.full[:f.words])
}

// squareTo is SquareTo on the given strategy.
func (f *Field) squareTo(st Strategy, dst, a Elem, s *Scratch) {
	if st == StratHWClmul {
		_, _ = dst[f.words-1], a[f.words-1]
		clmulFold(&dst[0], &a[0], nil, f.fold)
		return
	}
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

// invTo is InvTo on the given strategy.
func (f *Field) invTo(st Strategy, dst, a Elem, s *Scratch) {
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
			f.squareTo(st, tmp, tmp, s)
		}
		f.mulTo(st, beta, tmp, beta, s)
		cur *= 2
		if e>>i&1 == 1 {
			f.squareTo(st, beta, beta, s)
			f.mulTo(st, beta, beta, acp, s)
			cur++
		}
	}
	f.squareTo(st, dst, beta, s)
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
