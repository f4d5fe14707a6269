package gfbig

// Multiply strategies for the wide-word fields. Two implementations
// exist and a fixed rule binds them:
//
//   - hwclmul: the host's carry-less multiply instruction on 64-bit
//     limbs plus the field's fixed fold schedule (clmul.go). MulTo,
//     SquareTo and InvTo run it where CPUID reports PCLMULQDQ and the
//     field's polynomial reduces in one pass (every NIST field does);
//   - schoolbook: Words^2 32x32 partial products (Clmul32, the Go model
//     of gf32bMult), the spread-table square and the generic
//     reduceInPlace. It is the reference, Mul always runs it, and MulTo
//     runs it everywhere else.
//
// The scalar kernel force (GFP_KERNEL_TIER=scalar /
// gf.ForceKernelTier(gf.TierScalar)) pins MulTo to schoolbook too, so
// a forced-scalar run exercises the Go paths end to end. Nothing is
// timed: every run on a host makes the same choice (UseCLMUL).

// Strategy identifies one multiply implementation.
type Strategy uint8

const (
	// StratSchoolbook is the definitional Go path (MulFull + reduction).
	StratSchoolbook Strategy = iota
	// StratHWClmul is the host's carry-less multiply instruction.
	StratHWClmul
	// NumStrategies is the number of strategies.
	NumStrategies
)

var strategyNames = [NumStrategies]string{"schoolbook", "hwclmul"}

// String returns the strategy's name.
func (s Strategy) String() string {
	if int(s) < len(strategyNames) {
		return strategyNames[s]
	}
	return "strategy(?)"
}

// StrategyNames returns the names of all multiply strategies in
// Strategy order.
func StrategyNames() []string { return append([]string(nil), strategyNames[:]...) }

// MulStrategy returns the strategy MulTo, SquareTo and InvTo run for
// this field: hwclmul where the host has the instruction and the field
// a one-pass fold schedule, unless the scalar kernel force is set;
// schoolbook otherwise.
func (f *Field) MulStrategy() Strategy {
	if f.fold != nil && UseCLMUL() {
		return StratHWClmul
	}
	return StratSchoolbook
}

// hwclmul reports whether this host can run the hwclmul strategy for
// the field.
func (f *Field) hwclmul() bool { return hasCLMUL && f.fold != nil }

// strategies returns the strategies this host can run for the field, in
// Strategy order.
func (f *Field) strategies() []Strategy {
	if f.hwclmul() {
		return []Strategy{StratSchoolbook, StratHWClmul}
	}
	return []Strategy{StratSchoolbook}
}

// AvailableStrategies returns the names of the strategies this host can
// run for the field, whatever the kernel force: the set
// VerifyMulStrategies checks.
func (f *Field) AvailableStrategies() []string {
	var names []string
	for _, st := range f.strategies() {
		names = append(names, st.String())
	}
	return names
}
