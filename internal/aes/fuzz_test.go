package aes

import (
	"bytes"
	stdaes "crypto/aes"
	"crypto/cipher"
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

// FuzzGCM seals and opens fuzzer-chosen plaintexts and AAD under every
// block strategy the host can run, in place and into a separate buffer,
// and checks each against crypto/aes with crypto/cipher's GCM. A flipped
// tag bit must fail to open. The key's size is picked by the fuzzer
// (16, 24 or 32 bytes); plaintexts are capped at 300 bytes, enough to
// cross the eight-block counter stride.
func FuzzGCM(f *testing.F) {
	for _, n := range []int{0, 1, 16, 17, 128, 129, 300} {
		f.Add(uint8(n), make([]byte, 32), make([]byte, 12), []byte("hdr"), bytes.Repeat([]byte{0xa5}, n))
	}
	f.Fuzz(func(t *testing.T, ksel uint8, keyBytes, nonce, aad, pt []byte) {
		kl := 16 + 8*int(ksel%3)
		if len(keyBytes) < kl || len(nonce) < 12 {
			return
		}
		key, nonce := keyBytes[:kl], nonce[:12]
		pt = pt[:min(len(pt), 300)]
		std, err := stdaes.NewCipher(key)
		if err != nil {
			t.Fatal(err)
		}
		sg, err := cipher.NewGCM(std)
		if err != nil {
			t.Fatal(err)
		}
		want := sg.Seal(nil, nonce, pt, aad)
		for _, strategy := range BlockStrategies() {
			g := withStrategy(t, key, strategy).NewGCM()
			sealed, err := g.SealTo(nil, nonce, pt, aad)
			if err != nil || !bytes.Equal(sealed, want) {
				t.Fatalf("%s: SealTo = %x, %v; crypto/cipher %x", strategy, sealed, err, want)
			}
			buf := append(make([]byte, 0, len(pt)+gcmTagSize), pt...)
			inPlace, err := g.SealTo(buf[:0], nonce, buf, aad)
			if err != nil || !bytes.Equal(inPlace, want) {
				t.Fatalf("%s: in-place SealTo = %x, %v; crypto/cipher %x", strategy, inPlace, err, want)
			}
			opened, err := g.OpenTo(nil, nonce, want, aad)
			if err != nil || !bytes.Equal(opened, pt) {
				t.Fatalf("%s: OpenTo = %x, %v; want %x", strategy, opened, err, pt)
			}
			opened, err = g.OpenTo(inPlace[:0], nonce, inPlace, aad)
			if err != nil || !bytes.Equal(opened, pt) {
				t.Fatalf("%s: in-place OpenTo = %x, %v; want %x", strategy, opened, err, pt)
			}
			bad := append([]byte(nil), want...)
			bad[len(bad)-1-int(ksel)%gcmTagSize] ^= 1 << (ksel % 8)
			if _, err := g.OpenTo(nil, nonce, bad, aad); err == nil {
				t.Fatalf("%s: OpenTo accepted a flipped tag bit", strategy)
			}
		}
	})
}
