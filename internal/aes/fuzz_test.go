package aes

import (
	"encoding/binary"
	"testing"

	"repro/internal/gfbig"
)

// FuzzGHASH cross-checks the GHASH multiplies on fuzzer-chosen subkeys,
// blocks and data: the carry-less multiply instruction's block multiply
// (where the host has it) and the 4-bit table against the bit-serial
// reference mulH, and a multi-block absorb on each multiply against the
// same absorb on mulH. The seeds cover the blocks and subkeys 0, 1 (bit
// 63 of the first half), all ones and x^127 alone (bit 0 of the second
// half).
func FuzzGHASH(f *testing.F) {
	one := [2]uint64{1 << 63, 0}
	ones := [2]uint64{^uint64(0), ^uint64(0)}
	top := [2]uint64{0, 1}
	for _, h := range [][2]uint64{one, ones, top, {0x66e94bd4ef8a2c3b, 0x884cfa59ca342b2e}} {
		for _, x := range [][2]uint64{{}, one, ones, top} {
			f.Add(h[0], h[1], x[0], x[1], []byte("GHASH over more than one block, ending in a partial one"))
		}
	}
	f.Fuzz(func(t *testing.T, h0, h1, x0, x1 uint64, data []byte) {
		g := withSubkey(h0, h1)
		w0, w1 := g.mulH(x0, x1)
		if z0, z1 := g.mul(x0, x1); z0 != w0 || z1 != w1 {
			t.Fatalf("table %016x%016x != reference %016x%016x", z0, z1, w0, w1)
		}
		ref := refAbsorb(g, x0, x1, data)
		if y0, y1 := g.absorb(x0, x1, data); [2]uint64{y0, y1} != ref {
			t.Fatalf("table absorb %016x%016x != reference %016x%016x", y0, y1, ref[0], ref[1])
		}
		if !gfbig.HasCLMUL() {
			return
		}
		if z0, z1 := gfbig.GHASHMul(x0, x1, h0, h1); z0 != w0 || z1 != w1 {
			t.Fatalf("hwclmul %016x%016x != reference %016x%016x", z0, z1, w0, w1)
		}
		g.hw = true
		if y0, y1 := g.absorb(x0, x1, data); [2]uint64{y0, y1} != ref {
			t.Fatalf("hwclmul absorb %016x%016x != reference %016x%016x", y0, y1, ref[0], ref[1])
		}
	})
}

// refAbsorb is absorb on the bit-serial reference multiply.
func refAbsorb(g *GCM, y0, y1 uint64, data []byte) [2]uint64 {
	for len(data) > 0 {
		var blk [BlockSize]byte
		n := copy(blk[:], data)
		data = data[n:]
		y0, y1 = g.mulH(y0^binary.BigEndian.Uint64(blk[0:8]), y1^binary.BigEndian.Uint64(blk[8:16]))
	}
	return [2]uint64{y0, y1}
}
