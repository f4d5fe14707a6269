package gf

import (
	"strings"
	"testing"
)

// TestVerifyKernelsAllFields: the differential check passes for every
// default field the table covers, plus one wide field on the scalar
// path.
func TestVerifyKernelsAllFields(t *testing.T) {
	for m := 2; m <= 8; m++ {
		f := MustDefault(m)
		if err := VerifyKernels(f, 4, 1); err != nil {
			t.Errorf("VerifyKernels(GF(2^%d)): %v", m, err)
		}
	}
	// AES field: same degree as the default m=8 field, different polynomial.
	if err := VerifyKernels(AES(), 4, 1); err != nil {
		t.Errorf("VerifyKernels(AES): %v", err)
	}
	// m > 8 runs the scalar path against itself; must still pass.
	if err := VerifyKernels(MustDefault(10), 2, 1); err != nil {
		t.Errorf("VerifyKernels(GF(2^10)): %v", err)
	}
}

// TestVerifyKernelsCatchesCorruption: poison one product-table entry and
// the differential check must report it (with the op name in the error),
// proving the harness can actually detect a bad table loop — with the
// scalar force on as well as off, since the force moves Field.Kernels
// onto the scalar loops but the table stays one lift of it away.
func TestVerifyKernelsCatchesCorruption(t *testing.T) {
	defer ForceScalarKernels(ScalarKernelsForced())
	// Build a private field instance so the shared cached Kernels used by
	// every other test stays intact.
	poly, err := DefaultPoly(8)
	if err != nil {
		t.Fatal(err)
	}
	f := MustNew(8, poly)
	k := f.Kernels()
	if !k.Table() {
		t.Fatal("m=8 field did not build the table tier")
	}
	// Corrupt 2*3 in the flat product table.
	k.mul[2*256+3] ^= 1

	for _, force := range []bool{false, true} {
		ForceScalarKernels(force)
		err = VerifyKernels(f, 32, 1)
		if err == nil {
			t.Fatalf("force %v: VerifyKernels passed over a corrupted product table", force)
		}
		if !strings.Contains(err.Error(), "selftest") {
			t.Errorf("force %v: corruption error %q does not mention selftest", force, err)
		}
	}
}

// TestVerifyKernelsDeterministic: same seed, same verdict and no panic —
// the harness must be reproducible so CI failures can be replayed.
func TestVerifyKernelsDeterministic(t *testing.T) {
	f := MustDefault(8)
	for i := 0; i < 3; i++ {
		if err := VerifyKernels(f, 2, 42); err != nil {
			t.Fatalf("run %d: %v", i, err)
		}
	}
}
