package gfbig

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// testing/quick properties on the wide-field core, seeded through int64
// generators so elements span the whole field.

func quickElem(f *Field, seed int64) Elem {
	rng := rand.New(rand.NewSource(seed))
	return randElem(rng, f)
}

func TestQuickFieldProperties(t *testing.T) {
	f := F233()
	one := f.One()
	prop := func(sa, sb, sc int64) bool {
		a, b, c := quickElem(f, sa), quickElem(f, sb), quickElem(f, sc)
		// (a+b)*c == a*c + b*c
		if !f.Equal(f.Mul(f.Add(a, b), c), f.Add(f.Mul(a, c), f.Mul(b, c))) {
			return false
		}
		// Frobenius is a ring homomorphism: (a*b)^2 == a^2 * b^2.
		if !f.Equal(f.Sqr(f.Mul(a, b)), f.Mul(f.Sqr(a), f.Sqr(b))) {
			return false
		}
		// Inverse round trip (nonzero a).
		if !f.IsZero(a) && !f.Equal(f.Mul(a, f.Inv(a)), one) {
			return false
		}
		// Karatsuba agrees with schoolbook.
		return f.Equal(f.MulKaratsuba(a, b), f.Mul(a, b))
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestQuickBytesRoundTrip(t *testing.T) {
	f := F571()
	prop := func(seed int64) bool {
		a := quickElem(f, seed)
		back, err := f.SetBytes(f.Bytes(a))
		return err == nil && f.Equal(back, a)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}
