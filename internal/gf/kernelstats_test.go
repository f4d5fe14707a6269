package gf

import "testing"

func TestKernelTierNames(t *testing.T) {
	cases := []struct {
		m    int
		want string
	}{
		{4, "table"},
		{8, "table"},
		{13, "scalar"},
	}
	for _, tc := range cases {
		f, err := NewDefault(tc.m)
		if err != nil {
			t.Fatalf("NewDefault(%d): %v", tc.m, err)
		}
		if got := f.Kernels().Tier(); got != tc.want {
			t.Errorf("m=%d: Tier() = %q, want %q", tc.m, got, tc.want)
		}
		if got := f.ScalarKernels().Tier(); got != "scalar" {
			t.Errorf("m=%d: ScalarKernels().Tier() = %q, want scalar", tc.m, got)
		}
	}
}

func TestKernelCallsCount(t *testing.T) {
	f, err := NewDefault(8)
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]Elem, 32)

	// Lift the scalar force so accounting is deterministic whatever
	// GFP_KERNEL_TIER the test process runs under.
	defer ForceScalarKernels(ScalarKernelsForced())
	ForceScalarKernels(false)
	k := f.Kernels()
	before := KernelCalls()
	k.XorSlice(buf, buf)
	k.MulConstSlice(buf, buf, 3)
	_ = k.EvalSlice(buf, 2)
	after := KernelCalls()
	if grew := after[TierTable] - before[TierTable]; grew < 3 {
		t.Errorf("table tier calls grew by %d, want >= 3", grew)
	}

	// Scalar kernels charge scalar.
	before = KernelCalls()
	f.ScalarKernels().MulConstSlice(buf, buf, 3)
	after = KernelCalls()
	if grew := after[TierScalar] - before[TierScalar]; grew < 1 {
		t.Errorf("scalar tier calls grew by %d, want >= 1", grew)
	}

	// The scalar force reaches Field.Kernels too.
	ForceScalarKernels(true)
	before = KernelCalls()
	k.MulConstSlice(buf, buf, 3)
	after = KernelCalls()
	if grew := after[TierScalar] - before[TierScalar]; grew < 1 {
		t.Errorf("forced scalar tier calls grew by %d, want >= 1", grew)
	}
}

func TestSelectionsPublished(t *testing.T) {
	f, err := NewDefault(8)
	if err != nil {
		t.Fatal(err)
	}
	f.Kernels() // building the kernels publishes the shape's rows

	rows := Selections()
	byOp := map[string]TierSelection{}
	for _, r := range rows {
		if r.Field == f.String() {
			byOp[r.Op] = r
		}
	}
	if len(byOp) != len(selectionOps) {
		t.Fatalf("got %d selection rows for %v, want %d: %+v", len(byOp), f, len(selectionOps), rows)
	}
	valid := map[string]bool{}
	for _, n := range TierNames() {
		valid[n] = true
	}
	for op, r := range byOp {
		if !valid[r.Below] || !valid[r.Above] {
			t.Errorf("op %s: unknown tier names in %+v", op, r)
		}
		if (r.Below == r.Above) != (r.Crossover == 0) {
			t.Errorf("op %s: crossover %d inconsistent with below=%s above=%s", op, r.Crossover, r.Below, r.Above)
		}
	}
}
