package gfbig

import (
	"fmt"
	"testing"
)

func testFields() []*Field {
	return []*Field{F163(), F233(), F283(), F409(), F571()}
}

func randElems(f *Field, n int, seed uint64) []Elem {
	rng := seed*0x9e3779b97f4a7c15 + 1
	next := func() uint32 {
		rng ^= rng << 13
		rng ^= rng >> 7
		rng ^= rng << 17
		return uint32(rng)
	}
	out := make([]Elem, n)
	for k := range out {
		e := f.Zero()
		for i := range e {
			e[i] = next()
		}
		if top := f.m % WordBits; top != 0 {
			e[f.words-1] &= 1<<top - 1
		}
		out[k] = e
	}
	return out
}

// TestScratchVariantsMatchReference checks every To-variant against its
// allocating counterpart, for every strategy this host runs, on every
// NIST field.
func TestScratchVariantsMatchReference(t *testing.T) {
	for _, f := range testFields() {
		t.Run(f.String(), func(t *testing.T) {
			s := f.NewScratch()
			es := randElems(f, 32, uint64(f.m))
			got := f.Zero()
			for i := 0; i+1 < len(es); i += 2 {
				a, b := es[i], es[i+1]
				want := f.Mul(a, b)
				for _, st := range f.strategies() {
					f.mulTo(st, got, a, b, s)
					if !f.Equal(got, want) {
						t.Fatalf("%v MulTo mismatch: got %s want %s", st, f.Hex(got), f.Hex(want))
					}
					f.squareTo(st, got, a, s)
					if !f.Equal(got, f.Sqr(a)) {
						t.Fatalf("%v SquareTo mismatch", st)
					}
				}
				f.SquareTo(got, a, s)
				if !f.Equal(got, f.Sqr(a)) {
					t.Fatalf("SquareTo mismatch")
				}
				full := f.MulFull(a, b)
				f.ReduceTo(got, full, s)
				if !f.Equal(got, f.Reduce(full)) {
					t.Fatalf("ReduceTo mismatch")
				}
				f.AddTo(got, a, b)
				if !f.Equal(got, f.Add(a, b)) {
					t.Fatalf("AddTo mismatch")
				}
				if !f.IsZero(a) {
					f.InvTo(got, a, s)
					if !f.Equal(got, f.Inv(a)) {
						t.Fatalf("InvTo mismatch")
					}
				}
			}
		})
	}
}

// TestScratchAliasing proves dst may alias the operands.
func TestScratchAliasing(t *testing.T) {
	f := F233()
	s := f.NewScratch()
	es := randElems(f, 2, 99)
	a, b := es[0], es[1]
	want := f.Mul(a, b)
	x := f.Copy(a)
	f.MulTo(x, x, b, s)
	if !f.Equal(x, want) {
		t.Fatalf("MulTo(dst==a) mismatch")
	}
	x = f.Copy(b)
	f.MulTo(x, a, x, s)
	if !f.Equal(x, want) {
		t.Fatalf("MulTo(dst==b) mismatch")
	}
	x = f.Copy(a)
	f.SquareTo(x, x, s)
	if !f.Equal(x, f.Sqr(a)) {
		t.Fatalf("SquareTo(dst==a) mismatch")
	}
	x = f.Copy(a)
	f.InvTo(x, x, s)
	if !f.Equal(x, f.Inv(a)) {
		t.Fatalf("InvTo(dst==a) mismatch")
	}
}

// TestScratchZeroAlloc enforces the PR's core promise: the To-variants
// perform zero heap allocations in steady state.
func TestScratchZeroAlloc(t *testing.T) {
	f := F233()
	s := f.NewScratch()
	es := randElems(f, 2, 7)
	a, b := es[0], es[1]
	dst := f.Zero()
	full := f.MulFull(a, b)
	cases := []struct {
		name string
		fn   func()
	}{
		{"MulTo", func() { f.MulTo(dst, a, b, s) }},
		{"SquareTo", func() { f.SquareTo(dst, a, s) }},
		{"ReduceTo", func() { f.ReduceTo(dst, full, s) }},
		{"InvTo", func() { f.InvTo(dst, a, s) }},
		{"AddTo", func() { f.AddTo(dst, a, b) }},
	}
	for _, c := range cases {
		if n := testing.AllocsPerRun(20, c.fn); n != 0 {
			t.Errorf("%s: %v allocs/op, want 0", c.name, n)
		}
	}
}

// TestMulFullIntoEveryStrategyZeroAlloc pins the strategy explicitly so
// the zero-alloc property holds whatever kernel tier is forced: the
// multiply, square and inverse of every strategy this host runs.
func TestMulFullIntoEveryStrategyZeroAlloc(t *testing.T) {
	f := F233()
	s := f.NewScratch()
	es := randElems(f, 2, 13)
	a, b := es[0], es[1]
	dst := f.Zero()
	for _, st := range f.strategies() {
		n := testing.AllocsPerRun(20, func() {
			f.mulTo(st, dst, a, b, s)
			f.squareTo(st, dst, a, s)
			f.invTo(st, dst, a, s)
		})
		if n != 0 {
			t.Errorf("%v: %v allocs/op, want 0", st, n)
		}
	}
}

func TestVerifyMulStrategies(t *testing.T) {
	for _, f := range testFields() {
		if err := f.VerifyMulStrategies(16, 1); err != nil {
			t.Fatalf("%s: %v", f, err)
		}
	}
}

func TestSetBytesIntoRoundTrip(t *testing.T) {
	f := F233()
	es := randElems(f, 8, 21)
	buf := make([]byte, (f.M()+7)/8)
	dst := f.Zero()
	for _, e := range es {
		f.BytesInto(buf, e)
		if err := f.SetBytesInto(dst, buf); err != nil {
			t.Fatalf("SetBytesInto: %v", err)
		}
		if !f.Equal(dst, e) {
			t.Fatalf("round trip mismatch")
		}
	}
	// Degree >= m must be rejected.
	buf[0] |= 0x80
	for i := range buf {
		if i > 0 {
			buf[i] = 0xFF
		}
	}
	if err := f.SetBytesInto(dst, buf); err == nil {
		t.Fatalf("SetBytesInto accepted degree >= m")
	}
}

func TestStrategyNames(t *testing.T) {
	want := []string{"schoolbook", "hwclmul"}
	got := StrategyNames()
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("StrategyNames() = %v, want %v", got, want)
	}
	for st := StratSchoolbook; st < NumStrategies; st++ {
		if st.String() != want[st] {
			t.Fatalf("Strategy(%d).String() = %q", st, st.String())
		}
	}
}

func BenchmarkMulToStrategies(b *testing.B) {
	for _, f := range []*Field{F163(), F233(), F283()} {
		s := f.NewScratch()
		es := randElems(f, 2, 3)
		x, y := es[0], es[1]
		dst := f.Zero()
		for _, st := range f.strategies() {
			b.Run(fmt.Sprintf("m=%d/%s", f.M(), st), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					f.mulTo(st, dst, x, y, s)
				}
			})
		}
	}
}

func BenchmarkSquareTo(b *testing.B) {
	f := F233()
	s := f.NewScratch()
	x := randElems(f, 1, 4)[0]
	for _, st := range f.strategies() {
		b.Run(fmt.Sprintf("m=%d/%s", f.M(), st), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				f.squareTo(st, x, x, s)
			}
		})
	}
}

func BenchmarkInvTo(b *testing.B) {
	f := F233()
	s := f.NewScratch()
	a := randElems(f, 1, 5)[0]
	dst := f.Zero()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		f.InvTo(dst, a, s)
	}
}
