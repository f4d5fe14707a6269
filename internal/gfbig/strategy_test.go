package gfbig

import (
	"math/rand"
	"testing"

	"repro/internal/gf"
)

// TestMulStrategyRule: MulTo runs Karatsuba, except under the scalar
// kernel force, which pins it to the schoolbook reference.
func TestMulStrategyRule(t *testing.T) {
	defer gf.ForceKernelTier(gf.ForcedKernelTier())
	f := F233()
	for _, tc := range []struct {
		tier gf.TierID
		want Strategy
	}{
		{gf.TierAuto, StratKaratsuba},
		{gf.TierTable, StratKaratsuba},
		{gf.TierScalar, StratSchoolbook},
	} {
		gf.ForceKernelTier(tc.tier)
		if got := f.MulStrategy(); got != tc.want {
			t.Errorf("force %v: MulStrategy() = %v, want %v", tc.tier, got, tc.want)
		}
	}
}

// TestMulForcedTierRouting: Mul and MulTo stay bit-exact with the
// schoolbook reference under every kernel-tier force.
func TestMulForcedTierRouting(t *testing.T) {
	defer gf.ForceKernelTier(gf.ForcedKernelTier())
	f := F233()
	s := f.NewScratch()
	got := f.Zero()
	rng := rand.New(rand.NewSource(233))
	for _, tier := range []gf.TierID{gf.TierAuto, gf.TierScalar, gf.TierTable} {
		gf.ForceKernelTier(tier)
		for trial := 0; trial < 16; trial++ {
			a, b := randElem(rng, f), randElem(rng, f)
			want := f.Reduce(f.MulFull(a, b))
			if m := f.Mul(a, b); !f.Equal(m, want) {
				t.Fatalf("tier %v: Mul = %s, want %s", tier, f.Hex(m), f.Hex(want))
			}
			f.MulTo(got, a, b, s)
			if !f.Equal(got, want) {
				t.Fatalf("tier %v: MulTo = %s, want %s", tier, f.Hex(got), f.Hex(want))
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
			f.MulFullKaratsuba(x, y, karatsubaLevels)
		}
	})
}
