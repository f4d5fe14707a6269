package gf

import (
	"fmt"
	"testing"
)

// TestVerifyKernelsAllTiers is the exhaustive differential gate of the
// kernel tiers: for EVERY irreducible polynomial of degree 2..8 (all
// field shapes the codec layer can construct) plus the default
// degree-16 field, every built tier must agree with the scalar
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

func TestParseTier(t *testing.T) {
	for id := TierID(0); id < NumTiers; id++ {
		got, err := ParseTier(id.String())
		if err != nil || got != id {
			t.Errorf("ParseTier(%q) = %v, %v; want %v", id.String(), got, err, id)
		}
	}
	for _, name := range []string{"", "auto"} {
		if got, err := ParseTier(name); err != nil || got != TierAuto {
			t.Errorf("ParseTier(%q) = %v, %v; want TierAuto", name, got, err)
		}
	}
	for _, name := range []string{"simd", "packed", "bitsliced", "clmul"} {
		if _, err := ParseTier(name); err == nil {
			t.Errorf("ParseTier(%s): want error", name)
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

// TestForcedTierRouting checks that the process-wide force routes every
// auto-dispatched call onto the forced tier (with scalar fallback for
// unimplemented ops) and that outputs stay bit-exact with the scalar
// reference under every force.
func TestForcedTierRouting(t *testing.T) {
	defer ForceKernelTier(TierAuto)
	f, err := NewDefault(8)
	if err != nil {
		t.Fatal(err)
	}
	k, ref := f.Kernels(), f.ScalarKernels()
	n := 255
	src := make([]Elem, n)
	for i := range src {
		src[i] = Elem(i)
	}
	want := make([]Elem, n)
	ref.MulConstSlice(want, src, 0x57)

	for id := TierID(0); id < NumTiers; id++ {
		ForceKernelTier(id)
		if got := ForcedKernelTier(); got != id {
			t.Fatalf("ForcedKernelTier() = %v, want %v", got, id)
		}
		got := make([]Elem, n)
		before := KernelCalls()
		k.MulConstSlice(got, src, 0x57)
		after := KernelCalls()
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("forced %v: MulConstSlice[%d] = %d, want %d", id, i, got[i], want[i])
			}
		}
		// The hit lands on the forced tier when it implements the op for
		// this field, on scalar otherwise.
		charged := id
		if k.tiers[id] == nil || !k.tiers[id].supports(opMulConst) {
			charged = TierScalar
		}
		if after[charged]-before[charged] < 1 {
			t.Errorf("forced %v: no hit charged to %v", id, charged)
		}
	}
	ForceKernelTier(TierAuto)

	// A pin outranks the force: scalar views stay scalar under any force.
	ForceKernelTier(TierTable)
	before := KernelCalls()
	got := make([]Elem, n)
	ref.MulConstSlice(got, src, 0x57)
	after := KernelCalls()
	if after[TierScalar]-before[TierScalar] < 1 {
		t.Error("pinned scalar view did not charge the scalar tier under a table force")
	}
}

// ruleWant is the fixed rule written out independently of the
// dispatcher: table for every op but dot on m <= 8, scalar otherwise.
func ruleWant(m int, op string) TierID {
	if m <= 8 && op != "dot" {
		return TierTable
	}
	return TierScalar
}

// TestTierSelectionShape checks that Selections() reports the fixed
// rule for every field shape whose kernels were built: one row per op,
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
		want := ruleWant(m, r.Op).String()
		if r.Below != want || r.Above != want || r.Crossover != 0 {
			t.Errorf("%s op %s: selection %+v, want %s for all lengths", r.Field, r.Op, r, want)
		}
	}
	for name, n := range rows {
		if n != int(numOps) {
			t.Errorf("%s: %d selection rows, want one per op (%d)", name, n, numOps)
		}
	}
	for _, f := range fields {
		if rows[f.String()] == 0 {
			t.Errorf("%s: built kernels but published no selections", f)
		}
	}
}

// TestAutoDispatchRule checks the fixed rule through the tier counters:
// on m = 4, 5 and 8 the auto view charges table for every op the table
// tier implements and scalar for DotSlice; on m = 12 and 16 it charges
// scalar for everything.
func TestAutoDispatchRule(t *testing.T) {
	defer ForceKernelTier(ForcedKernelTier())
	ForceKernelTier(TierAuto)
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
			{"dot", func() { k.DotSlice(a, a) }},
			{"horner", func() { k.HornerSlice(a, x) }},
			{"eval", func() { k.EvalSlice(a, x) }},
			{"syndrome", func() { k.SyndromeSlice(syn, a, xs) }},
			{"hornerbit", func() { k.HornerBitSlice(bits, x) }},
			{"syndromebit", func() { k.SyndromeBitSlice(syn, bits, xs) }},
		}
		for _, op := range ops {
			want := ruleWant(m, op.name)
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
