package gfp

// One benchmark per table and figure of the paper's evaluation section.
// Each bench regenerates its experiment and reports the headline numbers
// as custom metrics (modeled cycles and speedups), so `go test -bench .`
// doubles as the reproduction harness; cmd/paperbench prints the same
// data as formatted tables.

import (
	"fmt"
	"math/big"
	"math/rand"
	"runtime"
	"testing"

	"repro/internal/aes"
	"repro/internal/bch"
	"repro/internal/ecc"
	"repro/internal/gf"
	"repro/internal/gfbig"
	"repro/internal/hwmodel"
	"repro/internal/kernels"
	"repro/internal/perf"
	"repro/internal/pipeline"
	"repro/internal/programs"
	"repro/internal/rs"
)

func rsTestWord(seed int64, nerr int) (*rs.Code, []gf.Elem) {
	f := gf.MustDefault(8)
	c := rs.Must(f, 255, 239)
	rng := rand.New(rand.NewSource(seed))
	msg := make([]gf.Elem, c.K)
	for i := range msg {
		msg[i] = gf.Elem(rng.Intn(256))
	}
	cw, err := c.Encode(msg)
	if err != nil {
		panic(err)
	}
	for _, p := range rng.Perm(c.N)[:nerr] {
		cw[p] ^= gf.Elem(1 + rng.Intn(255))
	}
	return c, cw
}

// --- Table 2: multiplier resource comparison ---

func BenchmarkTable2MultiplierResources(b *testing.B) {
	var sys, cmp float64
	for i := 0; i < b.N; i++ {
		sys = hwmodel.SystolicMultiplier(8).Total
		cmp = hwmodel.CompactMultiplier(8).Total
	}
	b.ReportMetric(sys, "systolic-gates")
	b.ReportMetric(cmp, "thiswork-gates")
	b.ReportMetric(sys/cmp, "area-ratio")
}

// --- Table 3: primitive units ---

func BenchmarkTable3PrimitiveComparison(b *testing.B) {
	// The functional content of Table 3: a square primitive is ~3x smaller
	// than a multiplier. Also measure the software model's relative speed.
	f := gf.MustDefault(8)
	var x gf.Elem = 0x57
	for i := 0; i < b.N; i++ {
		x = f.SqrNoTable(x) | 1
	}
	b.ReportMetric(hwmodel.MultUnitAreaUm2/hwmodel.SquareUnitAreaUm2, "mult/sq-area-ratio")
	b.ReportMetric(float64(hwmodel.NumMultUnits), "mult-units")
	b.ReportMetric(float64(hwmodel.NumSquareUnits), "square-units")
}

// --- Table 4: inverse resource comparison ---

func BenchmarkTable4InverseResources(b *testing.B) {
	var sys, ita float64
	for i := 0; i < b.N; i++ {
		sys = hwmodel.SystolicEuclidInverse(8).Total
		ita = hwmodel.ITAInverse(8).Total
	}
	b.ReportMetric(sys, "systolic-gates")
	b.ReportMetric(ita, "ita-gates")
	b.ReportMetric(sys/ita, "area-ratio")
}

// --- Table 6: syndrome inner loop on the real simulator ---

func BenchmarkTable6SyndromeInnerLoop(b *testing.B) {
	c, recv := rsTestWord(11, 6)
	var baseCycles, simdCycles int64
	for i := 0; i < b.N; i++ {
		baseCycles = 0
		for idx := 1; idx <= 4; idx++ {
			res, _, _, err := programs.Run(programs.SyndromeBaseline(c.F, recv, idx), false)
			if err != nil {
				b.Fatal(err)
			}
			baseCycles += res.Cycles
		}
		res, _, _, err := programs.Run(programs.SyndromeSIMD(c.F, recv, 1), true)
		if err != nil {
			b.Fatal(err)
		}
		simdCycles = res.Cycles
	}
	b.ReportMetric(float64(baseCycles), "m0-cycles")
	b.ReportMetric(float64(simdCycles), "gfproc-cycles")
	b.ReportMetric(float64(baseCycles)/float64(simdCycles), "speedup")
}

// --- Table 7: GF(2^233) mult/square cycle breakdown ---

func BenchmarkTable7WideMultCycles(b *testing.B) {
	f := gfbig.F233()
	var ph kernels.Table7Phases
	for i := 0; i < b.N; i++ {
		ph = kernels.MeasureTable7(f)
	}
	b.ReportMetric(float64(ph.MulTotal), "mult-cycles(paper:599)")
	b.ReportMetric(float64(ph.SqrTotal), "sqr-cycles(paper:136)")
	b.ReportMetric(float64(ph.GF32PerMul), "gf32-per-mult(paper:64)")
}

// --- Table 8: wide-field primitives vs prior art ---

func BenchmarkTable8WideFieldVsPriorArt(b *testing.B) {
	c := ecc.K233()
	var gfp kernels.WideFieldBreakdown
	for i := 0; i < b.N; i++ {
		gfp = kernels.MeasureWideField(c, kernels.GFProc)
	}
	b.ReportMetric(float64(gfp.Mul), "mult-cycles(paper:599)")
	b.ReportMetric(float64(gfp.Sqr), "sqr-cycles(paper:136)")
	b.ReportMetric(3672/float64(gfp.Mul), "mult-speedup-vs-clercq(paper:6.1)")
}

// --- Table 9: point operations ---

func BenchmarkTable9PointOperations(b *testing.B) {
	c := ecc.K233()
	var bd kernels.WideFieldBreakdown
	for i := 0; i < b.N; i++ {
		bd = kernels.MeasureWideField(c, kernels.GFProc)
	}
	b.ReportMetric(float64(bd.PointAdd), "point-add-cycles(paper:6742)")
	b.ReportMetric(float64(bd.PointDbl), "point-double-cycles(paper:3499)")
	b.ReportMetric(float64(bd.Inv), "inverse-cycles(paper:39972)")
}

// --- Fig. 9: decoder speedups ---

func BenchmarkFig9DecoderSpeedup(b *testing.B) {
	c, recv := rsTestWord(22, 8)
	code := bch.Must(gf.MustDefault(5), 5)
	rng := rand.New(rand.NewSource(23))
	msg := make([]byte, code.K)
	for i := range msg {
		msg[i] = byte(rng.Intn(2))
	}
	cwb, _ := code.Encode(msg)
	for _, p := range rng.Perm(code.N)[:5] {
		cwb[p] ^= 1
	}
	var rsBd, bchBd *kernels.DecoderBreakdown
	for i := 0; i < b.N; i++ {
		var err error
		rsBd, _, err = kernels.DecodeRS(c, recv)
		if err != nil {
			b.Fatal(err)
		}
		bchBd, _, err = kernels.DecodeBCH(code, cwb)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(rsBd.Syndrome.Speedup(), "rs-syndrome-speedup(paper:>20)")
	b.ReportMetric(rsBd.BMA.Speedup(), "rs-bma-speedup(least)")
	b.ReportMetric(rsBd.Forney.Speedup(), "rs-forney-speedup(paper:>10)")
	b.ReportMetric(rsBd.Overall.Speedup(), "rs-overall-speedup(paper:>10)")
	b.ReportMetric(bchBd.Overall.Speedup(), "bch-overall-speedup")
}

// --- Fig. 10: AES speedups ---

func BenchmarkFig10AESSpeedup(b *testing.B) {
	key := make([]byte, 16)
	pt := make([]byte, 16)
	var bd *kernels.AESBreakdown
	for i := 0; i < b.N; i++ {
		var err error
		bd, err = kernels.AESKernels(key, pt)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(bd.SBox.Speedup(), "sbox-speedup")
	b.ReportMetric(bd.MixCol.Speedup(), "mixcol-speedup(paper:>10)")
	b.ReportMetric(bd.InvMixCol.Speedup(), "invmixcol-speedup(paper:~20)")
	b.ReportMetric(bd.Encrypt.Speedup(), "enc-speedup(paper:>5)")
	b.ReportMetric(bd.Decrypt.Speedup(), "dec-speedup(paper:>10)")
}

// --- Section 3.3.4: scalar multiplication latency ---

func BenchmarkScalarMultCycles(b *testing.B) {
	c := ecc.K233()
	k := ecc.PaperScalar()
	var tr kernels.ScalarMultTrace
	for i := 0; i < b.N; i++ {
		var m perf.Meter
		tr = kernels.ScalarMult(c, k, c.Generator(), kernels.GFProc, 0, &m)
	}
	b.ReportMetric(float64(tr.MainCycles), "main-cycles(paper:617120)")
	b.ReportMetric(float64(tr.SupportCycles), "support-cycles(paper:157442)")
	b.ReportMetric(float64(tr.MainCycles+tr.SupportCycles)/1e5, "ms-at-100MHz(paper:7.75)")
}

// --- Section 3.3.4: Karatsuba optimization ---

func BenchmarkKaratsubaSpeedup(b *testing.B) {
	c := ecc.K233()
	var bd kernels.WideFieldBreakdown
	for i := 0; i < b.N; i++ {
		bd = kernels.MeasureWideField(c, kernels.GFProc)
	}
	b.ReportMetric(float64(bd.Mul)/float64(bd.MulKaratsuba), "karatsuba-speedup(paper:1.4)")
}

// --- Tables 10-13 and voltage scaling ---

func BenchmarkTable10GFUnitArea(b *testing.B) {
	var t hwmodel.GFUnitBreakdown
	for i := 0; i < b.N; i++ {
		t = hwmodel.Table10()
	}
	b.ReportMetric(t.TotalAreaUm2, "um2(paper:5760)")
	b.ReportMetric(t.CritPathNs, "crit-ns(paper:2.91)")
}

func BenchmarkTable11ProcessorArea(b *testing.B) {
	var p hwmodel.Processor
	for i := 0; i < b.N; i++ {
		p = hwmodel.Table11()
	}
	b.ReportMetric(p.TotalArea, "um2(paper:10272)")
	b.ReportMetric(p.TotalPower, "uW(paper:431)")
}

func BenchmarkTable12AESAreaComparison(b *testing.B) {
	var c hwmodel.AESAreaComparison
	for i := 0; i < b.N; i++ {
		c = hwmodel.Table12()
	}
	b.ReportMetric(100*c.ExtraAreaFrac, "extra-area-pct(paper:63.5)")
}

func BenchmarkTable13AESEnergy(b *testing.B) {
	key := make([]byte, 16)
	pt := make([]byte, 16)
	bd, err := kernels.AESKernels(key, pt)
	if err != nil {
		b.Fatal(err)
	}
	var rows []hwmodel.AESEnergy
	for i := 0; i < b.N; i++ {
		rows = hwmodel.Table13(bd.Encrypt.GFProc)
	}
	b.ReportMetric(rows[1].ThroughputMbps, "tput-Mbps(paper:12.2)")
	b.ReportMetric(rows[1].EnergyPJPerBit, "pJ-per-bit(paper:35.5)")
	b.ReportMetric(rows[1].EnergyPJPerBit/rows[0].EnergyPJPerBit, "vs-asic(paper:~6)")
}

// --- Ablations ---

func BenchmarkAblationSIMDWidth(b *testing.B) {
	// Syndrome kernel cycles as SIMD width scales 1/2/4/8 — the paper's
	// argument that 4 lanes saturate the application parallelism.
	c, recv := rsTestWord(33, 8)
	cycles := map[int]int64{}
	for i := 0; i < b.N; i++ {
		for _, lanes := range []int{1, 2, 4, 8} {
			twoT := 2 * c.T
			nv := (twoT + lanes - 1) / lanes
			var m perf.Meter
			m.Alu(int64(2 * nv))
			for j := 0; j < len(recv); j++ {
				m.Load(1)
				m.Alu(1)
				m.IMul(1)
				m.GF(int64(2 * nv))
				m.Alu(2)
				m.Taken(1)
			}
			cycles[lanes] = m.Cycles(perf.GFProcessor())
		}
	}
	b.ReportMetric(float64(cycles[1]), "1-lane-cycles")
	b.ReportMetric(float64(cycles[4]), "4-lane-cycles")
	b.ReportMetric(float64(cycles[4])/float64(cycles[8]), "4to8-gain(small)")
}

func BenchmarkAblationKaratsubaDepth(b *testing.B) {
	c := ecc.K233()
	a := c.F.FromUint64(0x123456789ABCDEF)
	cycles := map[int]int64{}
	for i := 0; i < b.N; i++ {
		for lv := 0; lv <= 3; lv++ {
			var m perf.Meter
			o := &kernels.WideOps{F: c.F, Mach: kernels.GFProc, M: &m, Karatsuba: lv}
			o.Mul(a, c.Gx)
			cycles[lv] = m.Cycles(perf.GFProcessor())
		}
	}
	for lv := 0; lv <= 3; lv++ {
		b.ReportMetric(float64(cycles[lv]), []string{"direct", "1-level", "2-level", "3-level"}[lv]+"-cycles")
	}
}

func BenchmarkAblationInverseMethods(b *testing.B) {
	// ITA vs extended Euclid vs Fermat on the software model (the three
	// candidate microarchitectures of Section 2.4.3 / Table 4).
	f := gf.AES()
	b.Run("ITA", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			f.InvITA(gf.Elem(i%255 + 1))
		}
	})
	b.Run("Euclid", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			f.InvEuclid(gf.Elem(i%255 + 1))
		}
	})
	b.Run("Fermat", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			f.InvFermat(gf.Elem(i%255 + 1))
		}
	})
	b.Run("LogTable", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			f.Inv(gf.Elem(i%255 + 1))
		}
	})
}

// --- Genuine library throughput benchmarks (host performance) ---

func BenchmarkGFMulTable(b *testing.B) {
	f := gf.MustDefault(8)
	var x gf.Elem = 1
	for i := 0; i < b.N; i++ {
		x = f.Mul(x, 0x57) | 1
	}
}

// BenchmarkGFKernelMulConstAddSlice measures the flat-table GF(2^8)
// multiply-accumulate kernel — the workhorse of encode, BMA and Forney.
func BenchmarkGFKernelMulConstAddSlice(b *testing.B) {
	k := gf.MustDefault(8).Kernels()
	src := make([]gf.Elem, 4096)
	acc := make([]gf.Elem, 4096)
	for i := range src {
		src[i] = gf.Elem((i*13 + 1) & 0xFF)
	}
	b.SetBytes(int64(len(src)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k.MulConstAddSlice(acc, src, gf.Elem(i%255+1))
	}
}

// BenchmarkGFKernelSyndromeSlice measures the interleaved multi-point
// Horner kernel at RS(255,223) shape (32 evaluation points, 255 symbols).
func BenchmarkGFKernelSyndromeSlice(b *testing.B) {
	f := gf.MustDefault(8)
	k := f.Kernels()
	word := make([]gf.Elem, 255)
	for i := range word {
		word[i] = gf.Elem((i*31 + 5) & 0xFF)
	}
	roots := make([]gf.Elem, 32)
	for i := range roots {
		roots[i] = f.AlphaPow(i + 1)
	}
	dst := make([]gf.Elem, len(roots))
	b.SetBytes(int64(len(word)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k.SyndromeSlice(dst, word, roots)
	}
}

// --- Kernel tier A/B: the same hot codec loops on each field's binding
// (the auto row: the product table at m <= 8, internal/gf/tier.go) and
// under the scalar force, exactly as GFP_KERNEL_TIER=scalar would, so
// the BENCH json records what the binding wins. ---

// benchPerTier runs fn as two sub-benchmarks named after the
// GFP_KERNEL_TIER value they run under: auto (the scalar force off) and
// scalar (on).
func benchPerTier(b *testing.B, fn func(b *testing.B)) {
	defer gf.ForceScalarKernels(gf.ScalarKernelsForced())
	for _, tier := range []string{"auto", "scalar"} {
		b.Run(tier, func(b *testing.B) {
			gf.ForceScalarKernels(tier == "scalar")
			b.ResetTimer()
			fn(b)
		})
	}
}

// BenchmarkGFTierRSEncode255_223 drives the LFSR encode bank (MulConst /
// MulConstAdd shape) per tier at the CCSDS RS(255,223) geometry.
func BenchmarkGFTierRSEncode255_223(b *testing.B) {
	c := rs.Must(gf.MustDefault(8), 255, 223)
	msg := make([]gf.Elem, c.K)
	for i := range msg {
		msg[i] = gf.Elem((i*11 + 3) & 0xFF)
	}
	dst := make([]gf.Elem, c.N)
	benchPerTier(b, func(b *testing.B) {
		b.SetBytes(int64(c.K))
		for i := 0; i < b.N; i++ {
			if _, err := c.EncodeTo(dst, msg); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkGFTierRSSyndromes255_223 drives the 32-point symbol-wise
// syndrome kernel per tier over a full received word.
func BenchmarkGFTierRSSyndromes255_223(b *testing.B) {
	c := rs.Must(gf.MustDefault(8), 255, 223)
	recv := make([]gf.Elem, c.N)
	for i := range recv {
		recv[i] = gf.Elem((i*29 + 7) & 0xFF)
	}
	dst := make([]gf.Elem, 2*c.T)
	benchPerTier(b, func(b *testing.B) {
		b.SetBytes(int64(c.N))
		for i := 0; i < b.N; i++ {
			c.SyndromesTo(dst, recv)
		}
	})
}

// BenchmarkGFTierBCHSyndromes255 drives the binary-word syndrome path
// (SyndromeBitSlice) per tier on a long BCH code over GF(2^8): n = 255
// bits, 32 evaluation points.
func BenchmarkGFTierBCHSyndromes255(b *testing.B) {
	code := bch.Must(gf.MustDefault(8), 16)
	rng := rand.New(rand.NewSource(88))
	recv := make([]byte, code.N)
	for i := range recv {
		recv[i] = byte(rng.Intn(2))
	}
	dst := make([]gf.Elem, 2*code.T)
	benchPerTier(b, func(b *testing.B) {
		b.SetBytes(int64(code.N))
		for i := 0; i < b.N; i++ {
			code.SyndromesTo(dst, recv)
		}
	})
}

func BenchmarkGFMulHardwarePath(b *testing.B) {
	f := gf.MustDefault(8)
	var x gf.Elem = 1
	for i := 0; i < b.N; i++ {
		x = f.MulNoTable(x, 0x57) | 1
	}
}

func BenchmarkRSEncode255_239(b *testing.B) {
	c := rs.Must(gf.MustDefault(8), 255, 239)
	msg := make([]gf.Elem, c.K)
	for i := range msg {
		msg[i] = gf.Elem(i & 0xFF)
	}
	dst := make([]gf.Elem, c.N)
	b.SetBytes(int64(c.K))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.EncodeTo(dst, msg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRSEncode255_239Alloc keeps the allocating Encode path measured
// so a regression in the codeword-per-call allocation shows up next to
// the zero-alloc EncodeTo number above.
func BenchmarkRSEncode255_239Alloc(b *testing.B) {
	c := rs.Must(gf.MustDefault(8), 255, 239)
	msg := make([]gf.Elem, c.K)
	for i := range msg {
		msg[i] = gf.Elem(i & 0xFF)
	}
	b.SetBytes(int64(c.K))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.Encode(msg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRSEncode255_223 exercises the buffer-reusing bulk encode path
// (gf.LFSR feedback bank) on the classic CCSDS shape.
func BenchmarkRSEncode255_223(b *testing.B) {
	c := rs.Must(gf.MustDefault(8), 255, 223)
	msg := make([]gf.Elem, c.K)
	for i := range msg {
		msg[i] = gf.Elem((i*11 + 3) & 0xFF)
	}
	dst := make([]gf.Elem, c.N)
	b.SetBytes(int64(c.K))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.EncodeTo(dst, msg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRSSyndromes255_223 exercises the 4-way batched Horner
// syndrome kernel over a full received word.
func BenchmarkRSSyndromes255_223(b *testing.B) {
	c := rs.Must(gf.MustDefault(8), 255, 223)
	recv := make([]gf.Elem, c.N)
	for i := range recv {
		recv[i] = gf.Elem((i*29 + 7) & 0xFF)
	}
	dst := make([]gf.Elem, 2*c.T)
	b.SetBytes(int64(c.N))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.SyndromesTo(dst, recv)
	}
}

func BenchmarkRSDecode255_239_8errors(b *testing.B) {
	c, recv := rsTestWord(44, 8)
	b.SetBytes(int64(c.K))
	for i := 0; i < b.N; i++ {
		if _, err := c.Decode(recv); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkBCHDecode31_11_5(b *testing.B) {
	code := bch.Must(gf.MustDefault(5), 5)
	rng := rand.New(rand.NewSource(55))
	msg := make([]byte, code.K)
	for i := range msg {
		msg[i] = byte(rng.Intn(2))
	}
	cw, _ := code.Encode(msg)
	for _, p := range rng.Perm(code.N)[:5] {
		cw[p] ^= 1
	}
	for i := 0; i < b.N; i++ {
		if _, err := code.Decode(cw); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAESEncryptGo(b *testing.B) {
	c, _ := aes.NewCipher(make([]byte, 16))
	blk := make([]byte, 16)
	b.SetBytes(16)
	for i := 0; i < b.N; i++ {
		c.Encrypt(blk, blk)
	}
}

func BenchmarkWideMulF233(b *testing.B) {
	f := gfbig.F233()
	x := f.FromUint64(0xDEADBEEF)
	y := f.Copy(f.FromUint64(0xCAFEF00D))
	for i := range y {
		y[i] ^= uint32(i) * 0x9E3779B9
	}
	y[len(y)-1] &= 1<<(233%32) - 1
	for i := 0; i < b.N; i++ {
		x = f.Mul(x, y)
	}
}

func BenchmarkWideMulF233Karatsuba(b *testing.B) {
	f := gfbig.F233()
	x := f.FromUint64(0xDEADBEEF)
	y := f.FromUint64(0xCAFEF00D)
	for i := 0; i < b.N; i++ {
		x = f.MulKaratsuba(x, y)
	}
}

func BenchmarkScalarMultK233Go(b *testing.B) {
	c := ecc.K233()
	k := ecc.PaperScalar()
	for i := 0; i < b.N; i++ {
		c.ScalarBaseMult(k)
	}
}

func BenchmarkSimulatorMIPS(b *testing.B) {
	// Raw simulator speed: instructions simulated per second.
	c, recv := rsTestWord(66, 4)
	src := programs.SyndromeSIMD(c.F, recv, 1)
	var insts int64
	for i := 0; i < b.N; i++ {
		res, _, _, err := programs.Run(src, true)
		if err != nil {
			b.Fatal(err)
		}
		insts = res.Instructions
	}
	b.ReportMetric(float64(insts), "insts/run")
}

// --- Extension features ---

func BenchmarkAblationWNAFWidth(b *testing.B) {
	// Group-operation counts per scalar-mult method (paper ref [30]).
	c := ecc.K233()
	rng := rand.New(rand.NewSource(77))
	k := new(big.Int).Rand(rng, c.Order)
	var adds2, adds5 int
	for i := 0; i < b.N; i++ {
		_, st2 := c.ScalarMultWNAFStats(k, c.Generator(), 2)
		_, st5 := c.ScalarMultWNAFStats(k, c.Generator(), 5)
		adds2 = st2.Adds + st2.Precomp
		adds5 = st5.Adds + st5.Precomp
	}
	b.ReportMetric(float64(adds2), "w2-adds")
	b.ReportMetric(float64(adds5), "w5-adds")
}

func BenchmarkGCMSeal(b *testing.B) {
	c, _ := aes.NewCipher(make([]byte, 16))
	g := c.NewGCM()
	nonce := make([]byte, 12)
	pt := make([]byte, 64)
	b.SetBytes(64)
	for i := 0; i < b.N; i++ {
		if _, err := g.Seal(nonce, pt, nil); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkECDSASignVerify(b *testing.B) {
	c := ecc.K233()
	rng := rand.New(rand.NewSource(88))
	key, err := ecc.GenerateKey(c, rng)
	if err != nil {
		b.Fatal(err)
	}
	msg := []byte("benchmark message")
	b.Run("Sign", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := key.Sign(rng, msg); err != nil {
				b.Fatal(err)
			}
		}
	})
	sig, _ := key.Sign(rng, msg)
	b.Run("Verify", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if !ecc.Verify(c, key.Pub, msg, sig) {
				b.Fatal("invalid")
			}
		}
	})
}

func BenchmarkAESBlockOnSimulator(b *testing.B) {
	key := make([]byte, 16)
	pt := make([]byte, 16)
	src, err := programs.AESEncryptBlock(key, pt)
	if err != nil {
		b.Fatal(err)
	}
	var cycles int64
	for i := 0; i < b.N; i++ {
		res, _, _, err := programs.Run(src, true)
		if err != nil {
			b.Fatal(err)
		}
		cycles = res.Cycles
	}
	b.ReportMetric(float64(cycles), "sim-cycles(model:~550)")
}

// --- Pipeline throughput: frames/s scaling across worker counts ---

// benchmarkPipelineRS drives encode -> corrupt -> decode over one shared
// RS(255,239) codec (the depth-1 frame stages) with the given per-stage
// worker count and codewords per frame, reporting message-payload MB/s
// via SetBytes. Corruption is derived from the frame sequence number and
// chunk index (8 symbol errors per codeword, the code's capability), so
// every configuration decodes an identical workload.
func benchmarkPipelineRS(b *testing.B, workers, batch int) {
	c := rs.Must(gf.MustDefault(8), 255, 239)
	iv, err := rs.NewInterleaved(c, 1)
	if err != nil {
		b.Fatal(err)
	}
	enc, err := pipeline.NewRSFrameEncode(iv)
	if err != nil {
		b.Fatal(err)
	}
	dec, err := pipeline.NewRSFrameDecode(iv)
	if err != nil {
		b.Fatal(err)
	}
	flip := pipeline.Func{Label: "flip(8)", F: func(f *pipeline.Frame) error {
		for w := 0; w < len(f.Data)/c.N; w++ {
			cw := f.Data[w*c.N : (w+1)*c.N]
			key := f.Seq*uint64(batch) + uint64(w)
			for i := 0; i < 8; i++ {
				cw[(int(key)%31+i*31)%c.N] ^= byte(1 + (key+uint64(i))%255)
			}
		}
		return nil
	}}
	p, err := pipeline.New(pipeline.Config{Workers: workers, Batch: batch}, enc, flip, dec)
	if err != nil {
		b.Fatal(err)
	}
	payload := make([]byte, batch*c.K)
	for i := range payload {
		payload[i] = byte(i * 7)
	}
	b.SetBytes(int64(batch * c.K))
	b.ResetTimer()
	r := p.Start()
	failed := make(chan int)
	go func() {
		bad := 0
		for f := range r.Out() {
			if f.Err != nil {
				bad++
			}
			f.Free()
		}
		failed <- bad
	}()
	for i := 0; i < b.N; i++ {
		r.Submit(payload)
	}
	r.Close()
	if bad := <-failed; bad > 0 {
		b.Fatalf("%d frames failed", bad)
	}
}

// BenchmarkPipelineRS255_239 contrasts a fully serialized pipeline
// (1 worker per stage) with one sized to the host (GOMAXPROCS workers
// per stage); on a multi-core machine the latter should scale decode
// throughput near-linearly until memory bandwidth intervenes. Each
// variant runs unbatched and with 16 codewords per frame — batching
// amortizes the per-frame handoff cost that otherwise dominates small
// codewords.
func BenchmarkPipelineRS255_239(b *testing.B) {
	for _, batch := range []int{1, 16} {
		suffix := ""
		if batch > 1 {
			suffix = fmt.Sprintf("/batch=%d", batch)
		}
		b.Run("workers=1"+suffix, func(b *testing.B) { benchmarkPipelineRS(b, 1, batch) })
		if w := runtime.GOMAXPROCS(0); w > 1 {
			b.Run(fmt.Sprintf("workers=%d%s", w, suffix), func(b *testing.B) { benchmarkPipelineRS(b, w, batch) })
		} else {
			b.Run("workers=4"+suffix, func(b *testing.B) { benchmarkPipelineRS(b, 4, batch) })
		}
	}
}
