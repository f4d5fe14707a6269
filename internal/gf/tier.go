package gf

// Kernel tiers. A field's kernels are bound once, when they are built,
// the software image of the paper's one configuration register per
// field and one datapath for every routine:
//
//	table  — m <= 8: every op runs on the flat product table, one
//	         256-entry row per element (the M0+ lookup baseline, four
//	         accumulator chains on the multi-point syndromes, a packed
//	         term register with per-lane step tables for the Chien
//	         search).
//	scalar — m > 8, and Field.ScalarKernels: every op runs the
//	         Field.Mul reference loop, the behavioral specification.
//
// One process-wide switch overrides the binding: the scalar force
// (GFP_KERNEL_TIER=scalar at startup, or ForceScalarKernels) routes
// every Field.Kernels call onto the scalar loops. It is for A/B
// benchmarking and for running the scalar oracle end to end; results
// are bit-exact either way.

import (
	"fmt"
	"os"
	"sync/atomic"
)

// TierID identifies the implementation tier that served a kernel call;
// it indexes KernelCalls.
type TierID uint8

const (
	// TierScalar is the pure Field.Mul reference path.
	TierScalar TierID = iota
	// TierTable is the flat product table, one 256-entry row per
	// element (m <= 8).
	TierTable
	// NumTiers is the number of tiers.
	NumTiers
)

var tierNames = [NumTiers]string{"scalar", "table"}

// String returns the tier's name.
func (t TierID) String() string { return tierNames[t] }

// TierNames returns the names of all tiers in TierID order.
func TierNames() []string {
	out := make([]string, NumTiers)
	copy(out, tierNames[:])
	return out
}

// scalarForced is the process-wide scalar force.
var scalarForced atomic.Bool

func init() {
	on, err := parseTier(os.Getenv("GFP_KERNEL_TIER"))
	if err != nil {
		panic(err)
	}
	scalarForced.Store(on)
}

// parseTier reads a GFP_KERNEL_TIER value: "scalar" turns the scalar
// force on, "" and "auto" leave each field on its binding.
func parseTier(v string) (scalar bool, err error) {
	switch v {
	case "", "auto":
		return false, nil
	case "scalar":
		return true, nil
	}
	return false, fmt.Errorf("gf: GFP_KERNEL_TIER=%q: want scalar or auto", v)
}

// ForceScalarKernels turns the process-wide scalar force on or off: while
// it is on, every Field.Kernels call runs the scalar reference loops.
// This is the programmatic form of GFP_KERNEL_TIER=scalar. Safe for
// concurrent use.
func ForceScalarKernels(on bool) { scalarForced.Store(on) }

// ScalarKernelsForced reports whether the scalar force is on.
func ScalarKernelsForced() bool { return scalarForced.Load() }
