package gfbig

import "testing"

// fuzzOperand turns fuzz bytes into a normalized element of f: the
// bytes fill the words little-endian (missing bytes are zero, extra
// ones ignored) and the bits at and above m are cleared.
func fuzzOperand(f *Field, b []byte) Elem {
	e := f.Zero()
	for i, v := range b {
		if i/4 >= f.words {
			break
		}
		e[i/4] |= uint32(v) << (8 * (i % 4))
	}
	if top := f.m % WordBits; top != 0 {
		e[f.words-1] &= 1<<top - 1
	}
	return e
}

// FuzzMulTo checks the allocation-free multiply, square and inverse of
// every strategy this host runs against the allocating references Mul,
// Sqr and Inv, on two operands built from the fuzz bytes for each NIST
// field. Derive hands network-supplied points to this code. The seeds
// pair zero, one, all ones and the lone top bit x^(m-1) of each field.
func FuzzMulTo(f *testing.F) {
	fields := testFields()
	zero, one := []byte{}, []byte{1}
	ones := make([]byte, 4*fields[len(fields)-1].words)
	for i := range ones {
		ones[i] = 0xff
	}
	edges := [][]byte{zero, one, ones}
	for _, fld := range fields {
		top := make([]byte, (fld.m+7)/8)
		top[(fld.m-1)/8] = 1 << ((fld.m - 1) % 8)
		edges = append(edges, top)
	}
	for _, a := range edges {
		for _, b := range edges {
			f.Add(a, b)
		}
	}
	scratch := make([]*Scratch, len(fields))
	for i, fld := range fields {
		scratch[i] = fld.NewScratch()
	}
	f.Fuzz(func(t *testing.T, ab, bb []byte) {
		for i, fld := range fields {
			a, b := fuzzOperand(fld, ab), fuzzOperand(fld, bb)
			s, got := scratch[i], fld.Zero()
			mul, sqr := fld.Mul(a, b), fld.Sqr(a)
			var inv Elem
			if !fld.IsZero(a) {
				inv = fld.Inv(a)
			}
			for _, st := range fld.strategies() {
				fld.mulTo(st, got, a, b, s)
				if !fld.Equal(got, mul) {
					t.Fatalf("%v %v: MulTo(%s, %s) = %s, Mul = %s", fld, st, fld.Hex(a), fld.Hex(b), fld.Hex(got), fld.Hex(mul))
				}
				fld.squareTo(st, got, a, s)
				if !fld.Equal(got, sqr) {
					t.Fatalf("%v %v: SquareTo(%s) = %s, Sqr = %s", fld, st, fld.Hex(a), fld.Hex(got), fld.Hex(sqr))
				}
				if inv != nil {
					fld.invTo(st, got, a, s)
					if !fld.Equal(got, inv) {
						t.Fatalf("%v %v: InvTo(%s) = %s, Inv = %s", fld, st, fld.Hex(a), fld.Hex(got), fld.Hex(inv))
					}
				}
			}
		}
	})
}
