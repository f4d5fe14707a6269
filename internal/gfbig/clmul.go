package gfbig

// The hwclmul strategy: the full product and the square come from the
// host's carry-less multiply (clmul_amd64.s), 64-bit limbs read straight
// from the []uint32 words, and the reduction is a schedule of folds
// fixed per field by its polynomial alone. Nothing in either branches
// or indexes memory on operand bits.

import "repro/internal/gf"

// HasCLMUL reports whether the CPU has the carry-less multiply
// instruction the hwclmul kernels run on (PCLMULQDQ, read once by CPUID
// at package init; always false off amd64).
func HasCLMUL() bool { return hasCLMUL }

// UseCLMUL reports whether the hwclmul kernels serve: the CPU has the
// instruction and the scalar kernel force (GFP_KERNEL_TIER=scalar) is
// not set. MulStrategy and the GHASH of internal/aes both follow it.
func UseCLMUL() bool { return hasCLMUL && !gf.ScalarKernelsForced() }

// GHASHMul returns x·h in GHASH's field GF(2^128)/(x^128+x^7+x^2+x+1),
// each element given as the big-endian halves of its 16-byte block (bit
// 63 of x0 is the coefficient of x^0), on the carry-less multiply
// instruction. It panics when HasCLMUL is false.
func GHASHMul(x0, x1, h0, h1 uint64) (z0, z1 uint64) {
	if !hasCLMUL {
		panic("gfbig: GHASHMul needs the carry-less multiply instruction")
	}
	return ghashMul(x0, x1, h0, h1)
}

// limbBits is the limb width of the hwclmul kernel.
const limbBits = 64

// foldPlan is a field's fixed reduction schedule on 64-bit limbs, read
// by the hwclmul kernel (clmulFold). Write r(x) = x^m mod P = Σ x^e and
// lo = ceil(m/64). A limb w at bit 64j >= m stands for
// w·x^(64j) = w·x^(64(j-lo))·x^s·x^m with s = 64·lo - m, so it is folded
// as the carry-less product w·(x^s·r(x)) xored in at limb j-lo: the same
// constant and offset for every j. Folding the limbs wholly above m top
// down, then the bits of the partial limb above m as their product with
// r(x) at limb 0, reduces any product in one pass when every
// e <= m-64: a fold then lands below the limb it came from, and the
// partial limb's below bit m. The kernel keeps both constants in two
// limbs, so it also needs s + e < 128, and m > 128 so that a fold's
// three limbs stay below the folded one. Every NIST field qualifies.
type foldPlan struct {
	words int       // element length in 32-bit words
	lo    int       // lowest limb wholly above bit m, ceil(m/64)
	hi    int       // highest limb of a product, (2m-2)/64
	mq    int       // limb holding bit m
	mr    uint64    // offset of bit m in limb mq; 0 when m is a multiple of 64
	r     [2]uint64 // x^s·r(x): a whole limb's fold constant
	r0    [2]uint64 // r(x): the partial limb's fold constant
}

// newFoldPlan returns the fixed schedule for x^m + Σ x^e (exps
// descending), or nil when the field does not meet foldPlan's
// conditions.
func newFoldPlan(m, words int, exps []int) *foldPlan {
	lo := (m + limbBits - 1) / limbBits
	s := lo*limbBits - m
	if m <= 2*limbBits || exps[0] > m-limbBits || s+exps[0] >= 2*limbBits {
		return nil
	}
	p := &foldPlan{words: words, lo: lo, hi: (2*m - 2) / limbBits, mq: m / limbBits, mr: uint64(m % limbBits)}
	for _, e := range exps {
		p.r[(s+e)/limbBits] |= 1 << ((s + e) % limbBits)
		p.r0[e/limbBits] |= 1 << (e % limbBits)
	}
	return p
}
