package gfbig

// Full-product strategies for the wide-word fields. Two implementations
// exist and a fixed rule binds them:
//
//   - MulTo, the allocation-free path the ECC engine runs, always uses
//     the paper's two-level Karatsuba decomposition over a scratch
//     arena;
//   - Mul, the allocating path, always uses the schoolbook reference.
//
// The one exception is the scalar kernel force (GFP_KERNEL_TIER=scalar
// / gf.ForceKernelTier(gf.TierScalar)), which pins MulTo to schoolbook
// too, so a forced-scalar run exercises the reference end to end.

import "repro/internal/gf"

// Strategy identifies one full-product implementation.
type Strategy uint8

const (
	// StratSchoolbook is the definitional Words^2 32x32 path (MulFull).
	StratSchoolbook Strategy = iota
	// StratKaratsuba is the paper's two-level Karatsuba decomposition.
	StratKaratsuba
	// NumStrategies is the number of strategies.
	NumStrategies
)

var strategyNames = [NumStrategies]string{"schoolbook", "karatsuba"}

// String returns the strategy's name.
func (s Strategy) String() string {
	if int(s) < len(strategyNames) {
		return strategyNames[s]
	}
	return "strategy(?)"
}

// StrategyNames returns the names of all full-product strategies in
// Strategy order.
func StrategyNames() []string { return append([]string(nil), strategyNames[:]...) }

// karatsubaLevels is the recursion depth of the scratch path: two
// levels (8 words -> 4 -> 2 for GF(2^233)), matching the paper's
// decomposition.
const karatsubaLevels = 2

// MulStrategy returns the full-product strategy MulTo runs for this
// field: Karatsuba, or schoolbook under the scalar kernel force.
func (f *Field) MulStrategy() Strategy {
	if gf.ForcedKernelTier() == gf.TierScalar {
		return StratSchoolbook
	}
	return StratKaratsuba
}
