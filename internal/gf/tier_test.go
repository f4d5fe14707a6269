package gf

import (
	"fmt"
	"testing"
)

// TestVerifyKernelsAllTiers is the exhaustive differential gate of the
// kernel tiers: for EVERY irreducible polynomial of degree 2..8 (all
// field shapes the codec layer can construct) plus the default
// degree-16 field, the table loops must agree with the scalar
// reference on every bulk op.
func TestVerifyKernelsAllTiers(t *testing.T) {
	for m := 2; m <= 8; m++ {
		for _, p := range IrreduciblePolys(m) {
			f := MustNew(m, p)
			if err := VerifyKernels(f, 2, int64(p)); err != nil {
				t.Errorf("m=%d poly=%#x: %v", m, p, err)
			}
		}
	}
	f16, err := NewDefault(16)
	if err != nil {
		t.Fatal(err)
	}
	if err := VerifyKernels(f16, 2, 16); err != nil {
		t.Errorf("m=16: %v", err)
	}
}

// TestVerifyKernelsDefaultFields covers the default polynomial of every
// supported degree, including the 8 < m < 16 shapes the all-irreducible
// sweep skips.
func TestVerifyKernelsDefaultFields(t *testing.T) {
	for m := 1; m <= 16; m++ {
		f, err := NewDefault(m)
		if err != nil {
			t.Fatalf("NewDefault(%d): %v", m, err)
		}
		if err := VerifyKernels(f, 2, int64(m)); err != nil {
			t.Errorf("m=%d: %v", m, err)
		}
	}
}

// TestParseTier: GFP_KERNEL_TIER takes scalar (the force on) and
// auto or nothing (each field's binding); every other name, table and
// the deleted tiers' included, is rejected.
func TestParseTier(t *testing.T) {
	for v, want := range map[string]bool{"": false, "auto": false, "scalar": true} {
		if got, err := parseTier(v); err != nil || got != want {
			t.Errorf("parseTier(%q) = %v, %v; want %v", v, got, err, want)
		}
	}
	for _, v := range []string{"table", "simd", "packed", "bitsliced", "clmul"} {
		if _, err := parseTier(v); err == nil {
			t.Errorf("parseTier(%q): want error", v)
		}
	}
}

func TestAvailableTiers(t *testing.T) {
	cases := []struct {
		m    int
		want []string
	}{
		{4, []string{"scalar", "table"}},
		{8, []string{"scalar", "table"}},
		{12, []string{"scalar"}},
		{16, []string{"scalar"}},
	}
	for _, tc := range cases {
		f, err := NewDefault(tc.m)
		if err != nil {
			t.Fatal(err)
		}
		got := f.Kernels().AvailableTiers()
		if len(got) != len(tc.want) {
			t.Errorf("m=%d: AvailableTiers() = %v, want %v", tc.m, got, tc.want)
			continue
		}
		for i := range got {
			if got[i] != tc.want[i] {
				t.Errorf("m=%d: AvailableTiers() = %v, want %v", tc.m, got, tc.want)
				break
			}
		}
	}
}

// TestForcedTierRouting checks the scalar force on a field whose product
// table is corrupted, so each call's result shows which loop ran: with
// the force on, Field.Kernels charges scalar and returns the scalar
// product; with it off, it charges table and returns the table's; and
// under the force the view VerifyKernels checks stays on the table.
func TestForcedTierRouting(t *testing.T) {
	defer ForceScalarKernels(ScalarKernelsForced())
	poly, err := DefaultPoly(8)
	if err != nil {
		t.Fatal(err)
	}
	f := MustNew(8, poly) // private: the shared fields' tables stay intact
	k := f.Kernels()
	src := []Elem{3}
	k.mul[0x57<<8|3] ^= 1
	want := f.Mul(0x57, 3)

	for _, tc := range []struct {
		force bool
		k     *Kernels
		tier  TierID
	}{
		{true, k, TierScalar},
		{true, k.unforced(), TierTable},
		{false, k, TierTable},
		{false, f.ScalarKernels(), TierScalar},
	} {
		ForceScalarKernels(tc.force)
		if got := ScalarKernelsForced(); got != tc.force {
			t.Fatalf("ScalarKernelsForced() = %v, want %v", got, tc.force)
		}
		var got [1]Elem
		before := KernelCalls()
		tc.k.MulConstSlice(got[:], src, 0x57)
		after := KernelCalls()
		for id := TierID(0); id < NumTiers; id++ {
			wantHits := int64(0)
			if id == tc.tier {
				wantHits = 1
			}
			if n := after[id] - before[id]; n != wantHits {
				t.Errorf("force %v, %s view: %v charged %d calls, want %d", tc.force, tc.k.Tier(), id, n, wantHits)
			}
		}
		if tableProduct := want ^ 1; tc.tier == TierTable && got[0] != tableProduct {
			t.Errorf("force %v: table loop returned %#x, want the corrupted entry %#x", tc.force, got[0], tableProduct)
		} else if tc.tier == TierScalar && got[0] != want {
			t.Errorf("force %v: scalar loop returned %#x, want %#x", tc.force, got[0], want)
		}
	}
}

// ruleWant is the per-field binding written out independently of the
// kernels: table for every op on m <= 8, scalar otherwise.
func ruleWant(m int) TierID {
	if m <= 8 {
		return TierTable
	}
	return TierScalar
}

// TestTierSelectionShape checks that Selections() reports the binding
// for every field shape whose kernels were built: one row per op,
// Below == Above, Crossover 0.
func TestTierSelectionShape(t *testing.T) {
	fields := []*Field{AES()}
	for _, m := range []int{2, 4, 5, 6, 8, 12, 16} {
		fields = append(fields, MustDefault(m))
	}
	for _, f := range fields {
		f.Kernels()
	}

	rows := map[string]int{}
	for _, r := range Selections() {
		var m int
		if _, err := fmt.Sscanf(r.Field, "GF(2^%d)", &m); err != nil {
			t.Fatalf("selection field %q: %v", r.Field, err)
		}
		rows[r.Field]++
		want := ruleWant(m).String()
		if r.Below != want || r.Above != want || r.Crossover != 0 {
			t.Errorf("%s op %s: selection %+v, want %s for all lengths", r.Field, r.Op, r, want)
		}
	}
	for name, n := range rows {
		if n != len(selectionOps) {
			t.Errorf("%s: %d selection rows, want one per op (%d)", name, n, len(selectionOps))
		}
	}
	for _, f := range fields {
		if rows[f.String()] == 0 {
			t.Errorf("%s: built kernels but published no selections", f)
		}
	}
}

// TestAutoDispatchRule checks the binding through the tier counters:
// with the force off, Field.Kernels charges table for every op on
// m = 4, 5 and 8, and scalar for every op on m = 12 and 16.
func TestAutoDispatchRule(t *testing.T) {
	defer ForceScalarKernels(ScalarKernelsForced())
	ForceScalarKernels(false)
	for _, m := range []int{4, 5, 8, 12, 16} {
		f := MustDefault(m)
		k := f.Kernels()
		a, dst := make([]Elem, 8), make([]Elem, 8)
		bits := make([]byte, 8)
		for i := range a {
			a[i] = Elem((i + 1) % f.Order())
			bits[i] = byte(i & 1)
		}
		xs := []Elem{f.Exp(1), f.Exp(2), f.Exp(3)}
		syn := make([]Elem, len(xs))
		x := f.Generator()
		ops := []struct {
			name string
			run  func()
		}{
			{"mulconst", func() { k.MulConstSlice(dst, a, 2) }},
			{"mulconstadd", func() { k.MulConstAddSlice(dst, a, 2) }},
			{"eval", func() { k.EvalSlice(a, x) }},
			{"syndrome", func() { k.SyndromeSlice(syn, a, xs) }},
			{"syndromebit", func() { k.SyndromeBitSlice(syn, bits, xs) }},
			{"chien", func() { k.ChienRoots(nil, a[:3], 8) }},
		}
		for _, op := range ops {
			want := ruleWant(m)
			before := KernelCalls()
			op.run()
			after := KernelCalls()
			for id := TierID(0); id < NumTiers; id++ {
				wantHits := int64(0)
				if id == want {
					wantHits = 1
				}
				if got := after[id] - before[id]; got != wantHits {
					t.Errorf("m=%d %s: %v charged %d calls, want %d", m, op.name, id, got, wantHits)
				}
			}
		}
	}
}
