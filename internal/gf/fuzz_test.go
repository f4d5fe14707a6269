package gf

import "testing"

// fuzzFields caches one field per width so fuzz iterations skip table
// construction.
var fuzzFields = func() map[int]*Field {
	fs := make(map[int]*Field)
	for m := 1; m <= 16; m++ {
		fs[m] = MustDefault(m)
	}
	return fs
}()

// FuzzMulAgainstNoTable cross-checks the log/antilog table arithmetic
// against the carry-less polynomial reference for every default field
// width: Mul vs MulNoTable, Sqr vs SqrNoTable, Pow vs powNoTable, plus
// the Inv/Pow(-1) and Exp/Log consistency laws the coding layers rely on.
func FuzzMulAgainstNoTable(f *testing.F) {
	f.Add(uint8(8), uint16(0x57), uint16(0x83), int16(3))
	f.Add(uint8(4), uint16(0xF), uint16(0x9), int16(-2))
	f.Add(uint8(1), uint16(1), uint16(1), int16(5))
	f.Add(uint8(16), uint16(0xFFFF), uint16(0x1234), int16(-1))
	f.Fuzz(func(t *testing.T, mRaw uint8, aRaw, bRaw uint16, e int16) {
		m := int(mRaw)%16 + 1
		fld := fuzzFields[m]
		a := Elem(int(aRaw) % fld.Order())
		b := Elem(int(bRaw) % fld.Order())

		if got, want := fld.Mul(a, b), fld.MulNoTable(a, b); got != want {
			t.Fatalf("m=%d: Mul(%#x,%#x) = %#x, MulNoTable = %#x", m, a, b, got, want)
		}
		// The table tier's product table must agree too: it is a third
		// independent implementation of the same product.
		if m <= tableMaxM {
			var got [1]Elem
			fld.Kernels().unforced().MulConstSlice(got[:], []Elem{b}, a)
			if got[0] != fld.Mul(a, b) {
				t.Fatalf("m=%d: table tier (%#x,%#x) = %#x, Mul = %#x", m, a, b, got[0], fld.Mul(a, b))
			}
		}
		if got, want := fld.Sqr(a), fld.SqrNoTable(a); got != want {
			t.Fatalf("m=%d: Sqr(%#x) = %#x, SqrNoTable = %#x", m, a, got, want)
		}

		// Pow vs square-and-multiply on the non-negative range the
		// reference implements; negative exponents via the a^-e == (a^e)^-1
		// law (a != 0).
		pe := int(e)
		if pe < 0 {
			pe = -pe
		}
		if got, want := fld.Pow(a, pe), fld.powNoTable(a, pe); got != want {
			t.Fatalf("m=%d: Pow(%#x,%d) = %#x, powNoTable = %#x", m, a, pe, got, want)
		}
		if a != 0 && pe > 0 {
			if got, want := fld.Pow(a, -pe), fld.Inv(fld.Pow(a, pe)); got != want {
				t.Fatalf("m=%d: Pow(%#x,%d) = %#x, want Inv(Pow) = %#x", m, a, -pe, got, want)
			}
		}
		if a != 0 {
			if got := fld.Mul(a, fld.Inv(a)); got != 1 {
				t.Fatalf("m=%d: %#x * Inv = %#x, want 1", m, a, got)
			}
			if got := fld.Exp(fld.Log(a)); got != a {
				t.Fatalf("m=%d: Exp(Log(%#x)) = %#x", m, a, got)
			}
		}
	})
}

// FuzzSyndromeTiers drives the multi-point syndrome kernels' table
// loops over fuzzer-chosen words and evaluation points, comparing them
// against the scalar reference. This is the differential gate for the
// hot decode path: a table loop that disagrees on any (field, word,
// points) triple is a silent-corruption bug.
func FuzzSyndromeTiers(f *testing.F) {
	f.Add(uint8(8), []byte{0xA5, 0x5A, 0xFF, 0x00, 0x33, 0x0F, 0xF0, 0x81}, uint16(1))
	f.Add(uint8(16), []byte{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11}, uint16(0x1234))
	f.Add(uint8(3), []byte{0xFF}, uint16(7))
	f.Add(uint8(5), make([]byte, 64), uint16(0))
	f.Add(uint8(1), []byte{0xAA, 0x55}, uint16(3))
	f.Fuzz(func(t *testing.T, mRaw uint8, data []byte, xsSeed uint16) {
		if len(data) == 0 {
			return
		}
		if len(data) > 256 {
			data = data[:256]
		}
		m := int(mRaw)%16 + 1
		fld := fuzzFields[m]

		// One binary word (the data's bits) and one symbol word (its
		// bytes folded into the field).
		bits := make([]byte, len(data)*8)
		word := make([]Elem, len(data))
		for i, by := range data {
			for b := 0; b < 8; b++ {
				bits[i*8+b] = by >> b & 1
			}
			word[i] = Elem(int(by) % fld.Order())
		}
		xs := make([]Elem, 8)
		for i := range xs {
			xs[i] = Elem((int(xsSeed)*(2*i+1) + i) % fld.Order())
		}

		ref := fld.ScalarKernels()
		wantBits := make([]Elem, len(xs))
		wantWord := make([]Elem, len(xs))
		ref.SyndromeBitSlice(wantBits, bits, xs)
		ref.SyndromeSlice(wantWord, word, xs)

		k := fld.Kernels().unforced()
		got := make([]Elem, len(xs))
		k.SyndromeBitSlice(got, bits, xs)
		for j := range got {
			if got[j] != wantBits[j] {
				t.Fatalf("m=%d tier=%s: SyndromeBitSlice[%d] = %d, scalar says %d", m, k.Tier(), j, got[j], wantBits[j])
			}
		}
		k.SyndromeSlice(got, word, xs)
		for j := range got {
			if got[j] != wantWord[j] {
				t.Fatalf("m=%d tier=%s: SyndromeSlice[%d] = %d, scalar says %d", m, k.Tier(), j, got[j], wantWord[j])
			}
		}
	})
}
