package gfbig

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/gf"
)

// TestMulStrategyRule: MulTo runs hwclmul where the host has the
// instruction, except under the scalar kernel force, which pins it to
// the schoolbook reference; a field without a one-pass fold schedule
// always runs schoolbook.
func TestMulStrategyRule(t *testing.T) {
	defer gf.ForceScalarKernels(gf.ScalarKernelsForced())
	fast := StratSchoolbook
	if HasCLMUL() {
		fast = StratHWClmul
	}
	wide := MustNew(233, 180, 0) // 180 > 233-64: no one-pass fold plan
	for _, tc := range []struct {
		f      *Field
		scalar bool
		want   Strategy
	}{
		{F233(), false, fast},
		{F233(), true, StratSchoolbook},
		{F163(), false, fast},
		{F571(), false, fast},
		{wide, false, StratSchoolbook},
	} {
		gf.ForceScalarKernels(tc.scalar)
		if got := tc.f.MulStrategy(); got != tc.want {
			t.Errorf("%v, scalar force %v: MulStrategy() = %v, want %v", tc.f, tc.scalar, got, tc.want)
		}
	}
	if got, want := fmt.Sprint(wide.AvailableStrategies()), "[schoolbook]"; got != want {
		t.Errorf("%v: AvailableStrategies() = %s, want %s", wide, got, want)
	}
}

// TestMulForcedTierRouting: Mul and MulTo stay bit-exact with the
// schoolbook reference with the scalar kernel force off and on.
func TestMulForcedTierRouting(t *testing.T) {
	defer gf.ForceScalarKernels(gf.ScalarKernelsForced())
	f := F233()
	s := f.NewScratch()
	got := f.Zero()
	rng := rand.New(rand.NewSource(233))
	for _, scalar := range []bool{false, true} {
		gf.ForceScalarKernels(scalar)
		for trial := 0; trial < 16; trial++ {
			a, b := randElem(rng, f), randElem(rng, f)
			want := f.Reduce(f.MulFull(a, b))
			if m := f.Mul(a, b); !f.Equal(m, want) {
				t.Fatalf("scalar force %v: Mul = %s, want %s", scalar, f.Hex(m), f.Hex(want))
			}
			f.MulTo(got, a, b, s)
			if !f.Equal(got, want) {
				t.Fatalf("scalar force %v: MulTo = %s, want %s", scalar, f.Hex(got), f.Hex(want))
			}
		}
	}
}

// TestMulAllocsMatchReference: the allocating Mul is exactly
// Reduce(MulFull) — same allocations, no strategy dispatch on top.
func TestMulAllocsMatchReference(t *testing.T) {
	f := F233()
	es := randElems(f, 2, 17)
	a, b := es[0], es[1]
	mul := testing.AllocsPerRun(20, func() { f.Mul(a, b) })
	ref := testing.AllocsPerRun(20, func() { f.Reduce(f.MulFull(a, b)) })
	if mul != ref {
		t.Fatalf("Mul: %v allocs/op, Reduce(MulFull): %v", mul, ref)
	}
}

func BenchmarkMulFull233(b *testing.B) {
	f := F233()
	rng := rand.New(rand.NewSource(7))
	x, y := randElem(rng, f), randElem(rng, f)
	b.Run("schoolbook", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			f.MulFull(x, y)
		}
	})
	b.Run("karatsuba", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			f.MulFullKaratsuba(x, y, 2)
		}
	})
}

// TestHWClmulFieldShapes: the hwclmul kernel agrees with the schoolbook
// references on field shapes beyond the NIST five — m a multiple of 64
// (no partial limb), an odd word count, the smallest and largest m a
// fold plan allows — and fields outside the plan's conditions have none.
func TestHWClmulFieldShapes(t *testing.T) {
	for _, tc := range []struct {
		f    *Field
		plan bool
	}{
		{MustNew(192, 7, 2, 1, 0), true},
		{MustNew(257, 12, 0), true},
		{MustNew(129, 5, 0), true},
		{MustNew(1024, 19, 6, 1, 0), true},
		{MustNew(571, 130, 0), false}, // s + e = 5 + 130 >= 128
		{MustNew(128, 7, 2, 1, 0), false},
		{MustNew(233, 180, 0), false},
	} {
		f := tc.f
		if got := f.fold != nil; got != tc.plan {
			t.Fatalf("%v: fold plan %v, want %v", f, got, tc.plan)
		}
		if !f.hwclmul() {
			continue
		}
		s := f.NewScratch()
		got := f.Zero()
		ones := f.Zero()
		for i := range ones {
			ones[i] = ^uint32(0)
		}
		if top := f.m % WordBits; top != 0 {
			ones[f.words-1] &= 1<<top - 1
		}
		topBit := f.Zero()
		topBit[(f.m-1)/WordBits] = 1 << ((f.m - 1) % WordBits)
		es := append(randElems(f, 16, uint64(f.m)), f.Zero(), f.One(), ones, topBit)
		for i, a := range es {
			b := es[(i+1)%len(es)]
			if f.mulTo(StratHWClmul, got, a, b, s); !f.Equal(got, f.Mul(a, b)) {
				t.Fatalf("%v: MulTo(%s, %s) = %s, want %s", f, f.Hex(a), f.Hex(b), f.Hex(got), f.Hex(f.Mul(a, b)))
			}
			if f.squareTo(StratHWClmul, got, a, s); !f.Equal(got, f.Sqr(a)) {
				t.Fatalf("%v: SquareTo(%s) = %s, want %s", f, f.Hex(a), f.Hex(got), f.Hex(f.Sqr(a)))
			}
		}
	}
}
