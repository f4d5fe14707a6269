package gf

// Kernel tiers. Each exported Kernels operation is served by one of two
// implementation tiers, bound by a fixed rule rather than measured per
// process — the software image of the paper binding each GF routine to
// one datapath configuration when the program is written:
//
//	scalar — Field.Mul reference loops; the behavioral specification.
//	table  — m <= 8, flat product table, one 256-entry row per element
//	         (the M0+ lookup baseline, four accumulator chains on the
//	         multi-point syndromes, a packed term register with
//	         per-lane step tables for the Chien search).
//
// A call runs on the first of these that applies:
//
//  1. the tier an instance view is pinned to (Field.ScalarKernels, the
//     selftest's per-tier views);
//  2. the process-wide forced tier (GFP_KERNEL_TIER at startup, or
//     ForceKernelTier);
//  3. the table tier, when the field has one and it implements the op;
//  4. otherwise, scalar.
//
// A pinned or forced tier that lacks the op falls back to scalar. The
// table tier implements every op except DotSlice, where the scalar
// log/antilog route is faster (BENCH_15, BenchmarkKernelOps).

import (
	"fmt"
	"os"
	"sync/atomic"
)

// TierID identifies one kernel implementation tier.
type TierID uint8

const (
	// TierScalar is the pure Field.Mul reference path — always present,
	// always the fallback for ops a tier does not implement.
	TierScalar TierID = iota
	// TierTable is the flat product table, one 256-entry row per
	// element (m <= 8).
	TierTable
	// NumTiers is the number of tiers.
	NumTiers

	// TierAuto means "no pin / no force": use the fixed rule.
	TierAuto TierID = 0xFF
)

var tierNames = [NumTiers]string{"scalar", "table"}

// String returns the tier's name.
func (t TierID) String() string {
	if t == TierAuto {
		return "auto"
	}
	if int(t) < len(tierNames) {
		return tierNames[t]
	}
	return fmt.Sprintf("tier(%d)", uint8(t))
}

// TierNames returns the names of all tiers in TierID order.
func TierNames() []string {
	out := make([]string, NumTiers)
	copy(out, tierNames[:])
	return out
}

// ParseTier maps a tier name (or "auto"/"") to a TierID.
func ParseTier(name string) (TierID, error) {
	if name == "" || name == "auto" {
		return TierAuto, nil
	}
	for i, n := range tierNames {
		if n == name {
			return TierID(i), nil
		}
	}
	return TierAuto, fmt.Errorf("gf: unknown kernel tier %q (want scalar, table or auto)", name)
}

// kernelOp indexes the dispatchable bulk operations. AddSlice/XorSlice
// and the stride copies are tier-independent (pure XOR / moves) and are
// not dispatched.
type kernelOp uint8

const (
	opMulConst kernelOp = iota
	opMulConstAdd
	opDot
	opHorner
	opEval
	opSyndrome
	opHornerBit
	opSyndromeBit
	opChien
	numOps
)

var opNames = [numOps]string{
	"mulconst", "mulconstadd", "dot", "horner",
	"eval", "syndrome", "hornerbit", "syndromebit", "chien",
}

// tierOps is the per-field op table one tier builds. A nil function
// means the tier does not implement that op for this field; the
// dispatcher falls back to the scalar reference. The table tier also
// exposes its product table so the LFSR bank can reuse it.
type tierOps struct {
	mulConst    func(dst, src []Elem, c Elem)
	mulConstAdd func(dst, src []Elem, c Elem)
	dot         func(a, b []Elem) Elem
	horner      func(word []Elem, x Elem) Elem
	eval        func(coeffs []Elem, x Elem) Elem
	syndrome    func(dst, word, xs []Elem)
	hornerBit   func(bits []byte, x Elem) Elem
	syndromeBit func(dst []Elem, bits []byte, xs []Elem)
	chien       func(pos []int, lam []Elem, n int) []int

	mul []Elem // table tier: flat product table (row c at [c<<8:c<<8+256])
}

// supports reports whether the tier implements op.
func (t *tierOps) supports(op kernelOp) bool {
	if t == nil {
		return false
	}
	switch op {
	case opMulConst:
		return t.mulConst != nil
	case opMulConstAdd:
		return t.mulConstAdd != nil
	case opDot:
		return t.dot != nil
	case opHorner:
		return t.horner != nil
	case opEval:
		return t.eval != nil
	case opSyndrome:
		return t.syndrome != nil
	case opHornerBit:
		return t.hornerBit != nil
	case opSyndromeBit:
		return t.syndromeBit != nil
	case opChien:
		return t.chien != nil
	}
	return false
}

// forcedTier is the process-wide tier override, stored as int32(TierID).
var forcedTier atomic.Int32

func init() {
	forcedTier.Store(int32(TierAuto))
	if v := os.Getenv("GFP_KERNEL_TIER"); v != "" {
		t, err := ParseTier(v)
		if err != nil {
			panic(fmt.Sprintf("gf: GFP_KERNEL_TIER: %v", err))
		}
		forcedTier.Store(int32(t))
	}
}

// ForceKernelTier forces every auto-dispatched kernel call process-wide
// onto the given tier (ops the tier does not implement for a field
// still fall back to the scalar reference). ForceKernelTier(TierAuto)
// restores the fixed rule. This is the programmatic form of the
// GFP_KERNEL_TIER environment variable. Safe for concurrent use.
func ForceKernelTier(t TierID) { forcedTier.Store(int32(t)) }

// ForcedKernelTier returns the current process-wide override, or
// TierAuto when the fixed rule applies.
func ForcedKernelTier() TierID { return TierID(forcedTier.Load()) }
