package gf

import (
	"fmt"
	"math/rand"
	"testing"
)

// BenchmarkKernelOps times every dispatched op on the auto view and on
// every built tier, for m in {4, 5, 6, 8}, at length 8 and at the full
// codeword length n = 2^m - 1. The syndrome ops evaluate 16 points;
// chien searches a degree-8 locator over len points.
// These rows are the evidence for the fixed rule in tier.go.
func BenchmarkKernelOps(b *testing.B) {
	for _, m := range []int{4, 5, 6, 8} {
		f := MustDefault(m)
		k := f.Kernels()
		views, names := []*Kernels{k}, []string{"auto"}
		for id := TierID(0); id < NumTiers; id++ {
			if k.tiers[id] != nil {
				views = append(views, k.forTier(id))
				names = append(names, id.String())
			}
		}
		n := f.Order() - 1
		rng := rand.New(rand.NewSource(int64(m)))
		a, c := randElems(rng, f, n), randElems(rng, f, n)
		bits := make([]byte, n)
		for i := range bits {
			bits[i] = byte(rng.Intn(2))
		}
		xs := make([]Elem, 16)
		for i := range xs {
			xs[i] = f.Exp(i + 1)
		}
		syn, dst := make([]Elem, len(xs)), make([]Elem, n)
		cst, x := Elem(f.Order()-2), f.Generator()
		lam, pos := a[:9], make([]int, 0, n)
		var sink Elem
		for _, l := range []int{8, n} {
			ops := []struct {
				name string
				run  func(v *Kernels)
			}{
				{"mulconst", func(v *Kernels) { v.MulConstSlice(dst[:l], a[:l], cst) }},
				{"mulconstadd", func(v *Kernels) { v.MulConstAddSlice(dst[:l], a[:l], cst) }},
				{"dot", func(v *Kernels) { sink ^= v.DotSlice(a[:l], c[:l]) }},
				{"horner", func(v *Kernels) { sink ^= v.HornerSlice(a[:l], x) }},
				{"eval", func(v *Kernels) { sink ^= v.EvalSlice(a[:l], x) }},
				{"syndrome", func(v *Kernels) { v.SyndromeSlice(syn, a[:l], xs) }},
				{"hornerbit", func(v *Kernels) { sink ^= v.HornerBitSlice(bits[:l], x) }},
				{"syndromebit", func(v *Kernels) { v.SyndromeBitSlice(syn, bits[:l], xs) }},
				{"chien", func(v *Kernels) { pos = v.ChienRoots(pos[:0], lam, l) }},
			}
			for _, op := range ops {
				for vi, v := range views {
					b.Run(fmt.Sprintf("m=%d/%s/len=%d/%s", m, op.name, l, names[vi]), func(b *testing.B) {
						for i := 0; i < b.N; i++ {
							op.run(v)
						}
					})
				}
			}
		}
		_ = sink
	}
}
