package rs

import (
	"math/rand"
	"slices"
	"testing"

	"repro/internal/gf"
	"repro/internal/gfpoly"
)

// rootPositions is the brute-force Chien reference: every root r of
// lambda found by gfpoly.Poly.Roots (exhaustive evaluation over the
// whole field) that is a codeword point alpha^-p, p < n, maps to index
// n-1-p. Returned in decreasing index order, as ChienSearch reports.
func rootPositions(c *Code, lambda gfpoly.Poly) []int {
	var pos []int
	full := c.F.N()
	for _, r := range lambda.Roots() {
		if r == 0 {
			continue
		}
		if p := (full - c.F.Log(r)) % full; p < c.N {
			pos = append(pos, c.N-1-p)
		}
	}
	slices.Sort(pos)
	slices.Reverse(pos)
	return pos
}

// randomLocator returns a locator with Lambda(0) = 1 and degree 1..t:
// either the product of (1 - X x) over distinct codeword locators (all
// roots inside the code) or random coefficients (roots anywhere in the
// field, or none — the uncorrectable shapes).
func randomLocator(rng *rand.Rand, c *Code) gfpoly.Poly {
	deg := 1 + rng.Intn(c.T)
	if rng.Intn(2) == 0 {
		lam := gfpoly.One(c.F)
		for _, idx := range rng.Perm(c.N)[:deg] {
			lam = lam.Mul(gfpoly.New(c.F, 1, c.F.AlphaPow(c.N-1-idx)))
		}
		return lam
	}
	coeffs := make([]gf.Elem, deg+1)
	coeffs[0] = 1
	for i := 1; i <= deg; i++ {
		coeffs[i] = gf.Elem(rng.Intn(c.F.Order()))
	}
	coeffs[deg] |= 1 // keep the degree
	return gfpoly.New(c.F, coeffs...)
}

// TestChienMatchesRoots: the one-call Chien search — through
// ChienSearch and through chienTo on DecodeTo's positions scratch —
// finds exactly the positions brute-force root finding does, on random
// locators over every code shape (shortened, b = 0, small field, and
// the m > 8 scalar-tier field).
func TestChienMatchesRoots(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for _, c := range bulkCodes(t) {
		buf := c.NewDecodeBuf()
		for trial := 0; trial < 40; trial++ {
			lam := randomLocator(rng, c)
			want := rootPositions(c, lam)
			if got := c.ChienSearch(lam); !slices.Equal(got, want) {
				t.Fatalf("%v: ChienSearch(%v) = %v, brute force %v", c, lam, got, want)
			}
			got := c.chienTo(buf.positions[:0], lam.Coeffs)
			if !slices.Equal(got, want) {
				t.Fatalf("%v: chienTo(%v) = %v, brute force %v", c, lam, got, want)
			}
		}
	}
}

// TestDecodeToChienPositions: DecodeTo locates random error patterns at
// the positions brute-force root finding gives for the BMA locator,
// including the edge positions 0 and n-1, on every code shape.
func TestDecodeToChienPositions(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	for _, c := range bulkCodes(t) {
		buf := c.NewDecodeBuf()
		cw := make([]gf.Elem, c.N)
		for trial := 0; trial < 30; trial++ {
			msg := bulkRandMsg(rng, c)
			if _, err := c.EncodeTo(cw, msg); err != nil {
				t.Fatal(err)
			}
			recv := append([]gf.Elem(nil), cw...)
			// Trial 0 hits exactly the two edge positions; the others
			// hit 0, n-1 and random positions up to t errors.
			errPos := []int{0, c.N - 1}
			if trial > 0 {
				for _, idx := range rng.Perm(c.N - 2)[:rng.Intn(c.T-1)] {
					errPos = append(errPos, idx+1)
				}
			}
			for _, idx := range errPos {
				recv[idx] ^= gf.Elem(1 + rng.Intn(c.F.Order()-1))
			}
			want := rootPositions(c, c.BerlekampMassey(c.Syndromes(recv)))
			res, err := c.DecodeTo(buf, recv)
			if err != nil {
				t.Fatalf("%v: %d errors at %v: %v", c, len(errPos), errPos, err)
			}
			if !slices.Equal(res.Positions, want) {
				t.Fatalf("%v: DecodeTo positions %v, brute force %v", c, res.Positions, want)
			}
			slices.Sort(errPos)
			slices.Reverse(errPos)
			if !slices.Equal(res.Positions, errPos) {
				t.Fatalf("%v: DecodeTo positions %v, injected %v", c, res.Positions, errPos)
			}
			if !slices.Equal(res.Corrected, cw) {
				t.Fatalf("%v: errors at %v not corrected", c, errPos)
			}
		}
	}
}

// BenchmarkDecodeTo255_239_mixed decodes RS(255,239) words carrying
// 0..8 symbol errors, uniformly — the shape of a noisy uplink, where
// most words pay the Chien search and a ninth are clean.
func BenchmarkDecodeTo255_239_mixed(b *testing.B) {
	c := Must(gf.MustDefault(8), 255, 239)
	rng := rand.New(rand.NewSource(9))
	words := make([][]gf.Elem, 9*8)
	for i := range words {
		cw, err := c.Encode(bulkRandMsg(rng, c))
		if err != nil {
			b.Fatal(err)
		}
		bulkCorrupt(rng, c, cw, i%9)
		words[i] = cw
	}
	buf := c.NewDecodeBuf()
	b.SetBytes(int64(c.N))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.DecodeTo(buf, words[i%len(words)]); err != nil {
			b.Fatal(err)
		}
	}
}
