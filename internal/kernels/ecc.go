package kernels

import (
	"math/big"
	"math/bits"

	"repro/internal/ecc"
	"repro/internal/gfbig"
	"repro/internal/perf"
)

// ECC_l kernels (paper Section 3.3.4, Tables 7, 8, 9).
//
// GF-processor model: wide multiplication iterates the single-cycle
// 32-bit partial product (gf32bMult) with the operand words of one input
// pinned in registers and the other streamed from memory (product
// scanning), then performs the sparse polynomial reduction on the scalar
// core — the two-phase structure of Table 7. Squaring needs only W
// gf32bMult instructions (one per word, Fig. 5c). Inversion is the
// Itoh-Tsujii chain over these primitives.
//
// Baseline model: a table-free right-to-left comb multiplication (the
// paper notes that published baselines such as Clercq [11] spend >= 4 KB
// on precomputed tables, "undesirable for low power devices"; our
// baseline avoids them, so it lands somewhat above Clercq's 3672 cycles),
// mask-interleave squaring, and Itoh-Tsujii inversion over those.

// WideOps bundles a wide field with a machine model and meter; its
// methods compute real values while charging cycles.
type WideOps struct {
	F         *gfbig.Field
	Mach      Machine
	M         *perf.Meter
	Karatsuba int  // Karatsuba levels for GFProc multiplication (0 = direct)
	Window    bool // Baseline only: 4-bit-window comb with a 16-entry table (Clercq-style, ~4 KB RAM)
}

// Add computes a+b: word-wise load/xor/store on both machines.
func (o *WideOps) Add(a, b gfbig.Elem) gfbig.Elem {
	w := int64(o.F.Words())
	o.M.Load(2 * w)
	o.M.Alu(w)
	o.M.Store(w)
	return o.F.Add(a, b)
}

// chargeReduce models the sparse-polynomial reduction on the scalar core
// (identical on both machines: it is plain shift/xor code).
func (o *WideOps) chargeReduce() {
	w := int64(o.F.Words())
	k := int64(len(o.F.Exponents()))
	o.M.Load(2 * w)        // high words + low accumulators
	o.M.Store(w)           // reduced result
	o.M.Alu(w * (3*k + 2)) // per word: shift+shift+xor per exponent, bookkeeping
}

// Mul computes a*b with the machine's multiplication strategy.
func (o *WideOps) Mul(a, b gfbig.Elem) gfbig.Elem {
	w := int64(o.F.Words())
	switch o.Mach {
	case GFProc:
		if o.Karatsuba > 0 {
			n := int64(gfbig.Clmul32Count(o.F.Words(), o.Karatsuba))
			o.M.GF32Mult(n)
			o.M.Load(2*w + n/2) // operands + re-reads of stacked halves
			o.M.Alu(3*n + 3*w)  // accumulate hi/lo + operand-sum preparation
			o.M.Store(2*w + w)  // full product + intermediate sums
			o.chargeReduce()
			return o.F.Reduce(o.F.MulFullKaratsuba(a, b, o.Karatsuba))
		}
		// Product scanning: one operand's W words pinned in registers
		// (W loads), the other loaded per partial product (W^2 loads).
		o.M.Load(w + w*w)
		o.M.GF32Mult(w * w)
		o.M.Alu(2*w*w + 2*w) // xor hi/lo into column accumulators + carries
		o.M.Store(2 * w)     // full product words
		o.chargeReduce()
		return o.F.Mul(a, b)
	default: // Baseline
		if o.Window {
			// Left-to-right comb with a 4-bit window (Lopez-Dahab
			// Alg. 2.36): precompute T[u] = u(x)*b(x) for u = 0..15
			// (the precomputed-table optimization of Clercq [11], ~4 KB
			// of RAM the paper flags as "undesirable"), then per window
			// position xor T[nibble] into the accumulator and shift.
			bw := w + 1
			// Precompute: T[2u] = T[u]<<1, T[2u+1] = T[2u]+b.
			for u := 2; u < 16; u++ {
				o.M.Load(bw)
				o.M.Alu(2 * bw)
				o.M.Store(bw)
			}
			nib := gfbig.WordBits / 4 // window positions per word
			for k := nib - 1; k >= 0; k-- {
				for j := 0; j < o.F.Words(); j++ {
					// accumulate T[nibble] at word offset j
					o.M.Load(1)   // a[j] (cached per j in registers realistically)
					o.M.Alu(2)    // extract nibble, index T
					o.M.Load(bw)  // T entry
					o.M.Load(bw)  // accumulator words
					o.M.Alu(bw)   // xors
					o.M.Store(bw) //
					loopOverhead(o.M)
				}
				if k > 0 {
					// shift the (2W+1)-word accumulator left by 4
					o.M.Load(2*w + 1)
					o.M.Alu(2 * (2*w + 1))
					o.M.Store(2*w + 1)
				}
			}
			o.chargeReduce()
			return o.F.Mul(a, b)
		}
		// Table-free right-to-left comb, data-dependent.
		// b<<k is maintained in registers (W+1 words); the accumulator
		// lives in memory. Costs depend on the actual bit pattern of a.
		bw := w + 1
		for k := 0; k < gfbig.WordBits; k++ {
			o.M.Load(w) // a words (re-read each pass)
			o.M.Alu(w)  // bit tests
			for i := 0; i < o.F.Words(); i++ {
				if a[i]>>k&1 == 1 {
					o.M.Taken(1)
					o.M.Load(bw) // accumulator words
					o.M.Alu(bw)  // xors
					o.M.Store(bw)
				} else {
					o.M.NotTaken(1)
				}
			}
			o.M.Alu(2 * bw) // shift the register-resident b left by one
			loopOverhead(o.M)
		}
		o.chargeReduce()
		return o.F.Mul(a, b)
	}
}

// Sqr computes a^2.
func (o *WideOps) Sqr(a gfbig.Elem) gfbig.Elem {
	w := int64(o.F.Words())
	switch o.Mach {
	case GFProc:
		// One gf32bMult per word (operand squared against itself spreads
		// the bits), interleaved with the rearrange, reduction on the core.
		o.M.Load(w)
		o.M.GF32Mult(w)
		o.M.Alu(3 * w) // interleave/rearrange moves
		o.M.Store(w)
		o.chargeReduce()
	default:
		// Mask-interleave bit spreading: ~24 ALU per input word produces
		// two output words (five shift-mask rounds per half).
		o.M.Load(w)
		o.M.Alu(24 * w)
		o.M.Store(2 * w)
		o.chargeReduce()
	}
	return o.F.Sqr(a)
}

// Inv computes a^-1 with the Itoh-Tsujii chain (10 multiplications + 232
// squarings for GF(2^233)) priced through Mul and Sqr.
func (o *WideOps) Inv(a gfbig.Elem) gfbig.Elem {
	if o.F.IsZero(a) {
		panic("kernels: inverse of zero")
	}
	e := o.F.M() - 1
	hb := 63 - bits.LeadingZeros64(uint64(e))
	beta := o.F.Copy(a)
	cur := 1
	sq := func(x gfbig.Elem, k int) gfbig.Elem {
		for i := 0; i < k; i++ {
			x = o.Sqr(x)
		}
		return x
	}
	for i := hb - 1; i >= 0; i-- {
		beta = o.Mul(sq(o.F.Copy(beta), cur), beta)
		cur *= 2
		if e>>i&1 == 1 {
			beta = o.Mul(sq(beta, 1), a)
			cur++
		}
	}
	return sq(beta, 1)
}

// PointAdd adds an affine point q into the Lopez-Dahab projective point
// (x1,y1,z1), mirroring ecc's mixed addition, with metering.
type ldPt struct{ X, Y, Z gfbig.Elem }

func (o *WideOps) pointAddMixed(c *ecc.Curve, p ldPt, q ecc.Point) ldPt {
	f := o.F
	z12 := o.Sqr(p.Z)
	a := o.Add(o.Mul(q.Y, z12), p.Y)
	b := o.Add(o.Mul(q.X, p.Z), p.X)
	cc := o.Mul(p.Z, b)
	var d gfbig.Elem
	if f.IsZero(c.A) {
		d = o.Mul(o.Sqr(b), cc)
	} else {
		d = o.Mul(o.Sqr(b), o.Add(cc, o.Mul(c.A, z12)))
	}
	z3 := o.Sqr(cc)
	e := o.Mul(a, cc)
	x3 := o.Add(o.Add(o.Sqr(a), d), e)
	ff := o.Add(x3, o.Mul(q.X, z3))
	g := o.Mul(o.Add(q.X, q.Y), o.Sqr(z3))
	y3 := o.Add(o.Mul(o.Add(e, z3), ff), g)
	return ldPt{X: x3, Y: y3, Z: z3}
}

func (o *WideOps) pointDouble(c *ecc.Curve, p ldPt) ldPt {
	f := o.F
	x2 := o.Sqr(p.X)
	z2 := o.Sqr(p.Z)
	bz4 := o.Mul(c.B, o.Sqr(z2))
	z3 := o.Mul(x2, z2)
	x3 := o.Add(o.Sqr(x2), bz4)
	t := o.Add(o.Sqr(p.Y), bz4)
	if !f.IsZero(c.A) {
		t = o.Add(t, o.Mul(c.A, z3))
	}
	y3 := o.Add(o.Mul(bz4, z3), o.Mul(x3, t))
	return ldPt{X: x3, Y: y3, Z: z3}
}

// ScalarMultTrace reports the structure of a metered scalar multiplication.
type ScalarMultTrace struct {
	PointAdds     int
	PointDoubles  int
	MainCycles    int64 // double-and-add loop
	SupportCycles int64 // final inversion + affine conversion
	Result        ecc.Point
}

// ScalarMult runs k*P by double-and-add over Lopez-Dahab coordinates with
// full metering, separating the main loop from the supporting conversion
// (the paper's 617,120 + 157,442 split).
func ScalarMult(c *ecc.Curve, k *big.Int, p ecc.Point, mach Machine, karatsuba int, m *perf.Meter) ScalarMultTrace {
	o := &WideOps{F: c.F, Mach: mach, M: m, Karatsuba: karatsuba}
	tr := ScalarMultTrace{}
	k = new(big.Int).Mod(k, c.Order)
	acc := ldPt{X: c.F.One(), Y: c.F.Zero(), Z: c.F.Zero()}
	started := false
	for i := k.BitLen() - 1; i >= 0; i-- {
		if started {
			acc = o.pointDouble(c, acc)
			tr.PointDoubles++
		}
		if k.Bit(i) == 1 {
			if !started {
				acc = ldPt{X: c.F.Copy(p.X), Y: c.F.Copy(p.Y), Z: c.F.One()}
				started = true
			} else {
				acc = o.pointAddMixed(c, acc, p)
				tr.PointAdds++
			}
		}
	}
	tr.MainCycles = m.Cycles(mach.Profile())
	// Support: convert back to affine (one inversion + 2 mult + 1 square).
	if started && !c.F.IsZero(acc.Z) {
		zInv := o.Inv(acc.Z)
		x := o.Mul(acc.X, zInv)
		y := o.Mul(acc.Y, o.Sqr(zInv))
		tr.Result = ecc.Point{X: x, Y: y}
	} else {
		tr.Result = ecc.Infinity()
	}
	tr.SupportCycles = m.Cycles(mach.Profile()) - tr.MainCycles
	return tr
}

// WideFieldBreakdown carries the Table 8/9 measurements for one machine
// configuration.
type WideFieldBreakdown struct {
	Mul          int64
	MulKaratsuba int64
	MulWindowed  int64 // Baseline only: Clercq-style 4-bit-window comb
	Sqr          int64
	Add          int64
	Inv          int64
	PointAdd     int64
	PointDbl     int64
}

// MeasureWideField measures all Table 8/9 primitives on the given machine
// for curve c using deterministic operands.
func MeasureWideField(c *ecc.Curve, mach Machine) WideFieldBreakdown {
	f := c.F
	a := f.FromUint64(0xDEADBEEFCAFEF00D)
	b := f.Copy(c.Gx)
	// densify a across all words
	for i := range a {
		a[i] ^= 0x9E3779B9 * uint32(i+1)
	}
	top := f.M() % 32
	if top != 0 {
		a[len(a)-1] &= 1<<top - 1
	}

	var bd WideFieldBreakdown
	run := func(f func(o *WideOps)) int64 {
		var m perf.Meter
		o := &WideOps{F: c.F, Mach: mach, M: &m}
		f(o)
		return m.Cycles(mach.Profile())
	}
	bd.Mul = run(func(o *WideOps) { o.Mul(a, b) })
	bd.MulKaratsuba = run(func(o *WideOps) {
		if mach == GFProc {
			o.Karatsuba = 2
		}
		o.Mul(a, b)
	})
	bd.MulWindowed = run(func(o *WideOps) {
		if mach == Baseline {
			o.Window = true
		}
		o.Mul(a, b)
	})
	bd.Sqr = run(func(o *WideOps) { o.Sqr(a) })
	bd.Add = run(func(o *WideOps) { o.Add(a, b) })
	bd.Inv = run(func(o *WideOps) { o.Inv(a) })
	bd.PointAdd = run(func(o *WideOps) {
		o.pointAddMixed(c, ldPt{X: a, Y: b, Z: f.One()}, c.Generator())
	})
	bd.PointDbl = run(func(o *WideOps) {
		o.pointDouble(c, ldPt{X: a, Y: b, Z: f.One()})
	})
	return bd
}

// Table7Phases reproduces the phase structure of Table 7 for the GF
// processor: cycles for the full product, rearrange+store, and the
// polynomial reduction of one GF(2^233) multiplication, plus the squaring
// phases.
type Table7Phases struct {
	MulFullProduct int64
	MulReduction   int64
	MulTotal       int64
	SqrTotal       int64
	GF32PerMul     int64
	GF32PerSqr     int64
}

// MeasureTable7 measures the phase breakdown on the GF processor.
func MeasureTable7(f *gfbig.Field) Table7Phases {
	w := int64(f.Words())
	var ph Table7Phases
	var m perf.Meter
	o := &WideOps{F: f, Mach: GFProc, M: &m}
	// Phase accounting mirrors Mul's internal charging.
	m.Reset()
	m.Load(w + w*w)
	m.GF32Mult(w * w)
	m.Alu(2*w*w + 2*w)
	m.Store(2 * w)
	ph.MulFullProduct = m.Cycles(perf.GFProcessor())
	m.Reset()
	o.chargeReduce()
	ph.MulReduction = m.Cycles(perf.GFProcessor())
	ph.MulTotal = ph.MulFullProduct + ph.MulReduction
	m.Reset()
	o.Sqr(f.FromUint64(12345))
	ph.SqrTotal = m.Cycles(perf.GFProcessor())
	ph.GF32PerMul = w * w
	ph.GF32PerSqr = w
	return ph
}
