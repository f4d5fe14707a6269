package gf

// Pluggable kernel-tier registry. The bulk slice layer (kernels.go) no
// longer hard-wires its implementation choice by field degree: each
// implementation strategy is a *tier* that registers a per-field op
// table here, and every exported Kernels operation picks a tier at call
// time from a per-(field, op, length) selection produced by a one-shot
// micro-calibration (calibrate.go). This is the software image of the
// paper's reconfigurable datapath: the same GF instruction can be
// served by the table-lookup route (the M0+ baseline) or by a computed
// carry-free route (the gf32bMult-style paths), and the dispatcher
// picks whichever the measured crossover favors.
//
// Five tiers exist today:
//
//	scalar    — Field.Mul reference loops; the behavioral specification.
//	packed    — m <= 4, mul-by-constant rows packed in one uint64.
//	table     — m <= 8, flat product table, one 256-entry row per element.
//	bitsliced — 64-bit SWAR lanes, computed xtime steps, no tables
//	            (bitslice.go).
//	clmul     — carry-less-multiply routes built on integer multiplies
//	            (clmul.go), including the Barrett-folded bit-syndrome
//	            plans and the wide-word Clmul64 feeding gfbig.
//
// A tier may implement any subset of the ops; missing ops fall back to
// the scalar reference. Selection precedence per call:
//
//  1. an instance pin (Field.ScalarKernels, the selftest's per-tier
//     views),
//  2. a process-wide forced tier (GFP_KERNEL_TIER env at startup, or
//     ForceKernelTier — the -kernel-tier flag of gfpipe/gfserved),
//  3. the calibrated per-(field, op, length) selection.

import (
	"fmt"
	"os"
	"sync/atomic"
)

// TierID identifies one registered kernel implementation tier.
type TierID uint8

const (
	// TierScalar is the pure Field.Mul reference path — always present,
	// always the fallback for ops a tier does not implement.
	TierScalar TierID = iota
	// TierPacked packs each mul-by-constant row into one uint64 (m <= 4).
	TierPacked
	// TierTable is the flat product table, one 256-entry row per
	// element (m <= 8).
	TierTable
	// TierBitsliced is the 64-bit SWAR lane tier: computed shift-and-add
	// multiplication over 8 byte lanes (m <= 8) or 4 halfword lanes
	// (m <= 16), no tables.
	TierBitsliced
	// TierCLMul is the carry-less-multiply tier: products via integer
	// multiplies with hole masks, reductions via Barrett division — the
	// software analogue of the paper's gf32bMult datapath.
	TierCLMul
	// NumTiers is the number of registered tiers.
	NumTiers

	// TierAuto means "no pin / no force": use the calibrated selection.
	TierAuto TierID = 0xFF
)

var tierNames = [NumTiers]string{"scalar", "packed", "table", "bitsliced", "clmul"}

// String returns the tier's registry name.
func (t TierID) String() string {
	if t == TierAuto {
		return "auto"
	}
	if int(t) < len(tierNames) {
		return tierNames[t]
	}
	return fmt.Sprintf("tier(%d)", uint8(t))
}

// TierNames returns the registry names of all tiers in TierID order.
func TierNames() []string {
	out := make([]string, NumTiers)
	copy(out, tierNames[:])
	return out
}

// ParseTier maps a registry name (or "auto"/"") to a TierID.
func ParseTier(name string) (TierID, error) {
	if name == "" || name == "auto" {
		return TierAuto, nil
	}
	for i, n := range tierNames {
		if n == name {
			return TierID(i), nil
		}
	}
	return TierAuto, fmt.Errorf("gf: unknown kernel tier %q (want scalar, packed, table, bitsliced, clmul or auto)", name)
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
	// opSyndromeBitFold is the pseudo-op behind BitSyndromePlan.Run: same
	// semantics as opSyndromeBit but with the clmul minpoly fold as an
	// extra candidate (the fold needs per-point precomputation a direct
	// SyndromeBitSlice call cannot amortize, so the two routes calibrate
	// separately).
	opSyndromeBitFold
	numOps
)

var opNames = [numOps]string{
	"mulconst", "mulconstadd", "dot", "horner",
	"eval", "syndrome", "hornerbit", "syndromebit", "syndromebitfold",
}

// tierOps is the per-field op table one tier builds. A nil function
// means the tier does not implement that op for this field; the
// dispatcher falls back to the scalar reference. The table/packed tiers
// additionally expose their lookup state so the LFSR bank (and the
// legacy Kernels accessors) can reuse it.
type tierOps struct {
	mulConst    func(dst, src []Elem, c Elem)
	mulConstAdd func(dst, src []Elem, c Elem)
	dot         func(a, b []Elem) Elem
	horner      func(word []Elem, x Elem) Elem
	eval        func(coeffs []Elem, x Elem) Elem
	syndrome    func(dst, word, xs []Elem)
	hornerBit   func(bits []byte, x Elem) Elem
	syndromeBit func(dst []Elem, bits []byte, xs []Elem)

	mul    []Elem   // table tier: flat product table (row c at [c<<8:c<<8+256])
	packed []uint64 // packed tier: one uint64 row per constant
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
	case opSyndromeBit, opSyndromeBitFold:
		return t.syndromeBit != nil
	}
	return false
}

// tierBuilders is the registry: one builder per tier, filled by init()
// in each tier's source file. A builder returns nil when the tier does
// not support the field at all (e.g. table tiers above m = 8).
var tierBuilders [NumTiers]func(*Field) *tierOps

// registerTier installs a tier builder. Called from init() only;
// double registration is a programming error.
func registerTier(id TierID, build func(*Field) *tierOps) {
	if tierBuilders[id] != nil {
		panic(fmt.Sprintf("gf: tier %v registered twice", id))
	}
	tierBuilders[id] = build
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
// restores calibrated selection. This is the programmatic form of the
// GFP_KERNEL_TIER environment variable and the -kernel-tier flag of
// gfpipe/gfserved. Safe for concurrent use.
func ForceKernelTier(t TierID) { forcedTier.Store(int32(t)) }

// ForcedKernelTier returns the current process-wide override, or
// TierAuto when selection is calibrated.
func ForcedKernelTier() TierID { return TierID(forcedTier.Load()) }
