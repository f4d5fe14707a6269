package aes

// Galois/Counter Mode. GCM's GHASH authenticator is itself Galois-field
// arithmetic — multiplication in GF(2^128)/x^128+x^7+x^2+x+1 with a
// bit-reflected element encoding — so an AES-GCM packet pipeline runs
// entirely on the operations the paper's processor accelerates: AES
// rounds on the SIMD unit and the 128-bit GHASH products on iterated
// 32-bit carry-free partial products (gf32bMult), exactly like the
// ECC_l wide multiplications of Section 3.3.4 (internal/kernels/gcm.go
// models that cost).
//
// NewGCM picks the GHASH multiply once, by the same fixed rule as the
// wide-field MulTo: where the CPU has the carry-less multiply
// instruction, one block is a 128x128 carry-less product and a two-step
// reduction on it (gfbig.GHASHMul, "hwclmul"); otherwise, and under the
// scalar kernel force, it is digit-serial in Go ("table"): NewGCM
// tabulates the 16 multiples of H by the 4-bit polynomials (Shoup's
// table, 256 bytes per key) and each block takes 32 nibble steps —
// shift the accumulator by x^4, fold the four bits that leave through
// the sparse reduction, add one table entry — instead of the 128 bit
// steps of the canonical shift-and-xor multiplier, mulH, which stays as
// the reference both are tested against.

import (
	"crypto/subtle"
	"encoding/binary"
	"fmt"

	"repro/internal/gfbig"
)

// GHASH multiply names, as GHASHStrategy reports them.
const (
	ghashTable   = "table"
	ghashHWClmul = "hwclmul"
)

// gcmTagSize is the full 16-byte authentication tag.
const gcmTagSize = 16

// ghashR is the GHASH reduction constant: x^128 = 1 + x + x^2 + x^7 in
// the bit-reflected encoding, where bit 63 of the first half is x^0.
const ghashR = uint64(0xE1) << 56

// GCM is an AES-GCM AEAD with a 96-bit nonce and 16-byte tag.
type GCM struct {
	c *Cipher
	// hash subkey H = E_K(0^128), big-endian halves.
	h0, h1 uint64
	// htab[v] = p_v(x)·H, where nibble v read MSB first is the
	// polynomial p_v = v3 + v2·x + v1·x^2 + v0·x^3 (bit 3 of v is x^0,
	// as in GHASH's bit-reflected encoding). 16 x 16 bytes.
	htab [16][2]uint64
	// hw selects the carry-less multiply instruction over htab.
	hw bool
}

// NewGCM wraps the cipher in Galois/Counter Mode.
func (c *Cipher) NewGCM() *GCM {
	var h [BlockSize]byte
	c.Encrypt(h[:], h[:])
	g := &GCM{
		c:  c,
		h0: binary.BigEndian.Uint64(h[0:8]),
		h1: binary.BigEndian.Uint64(h[8:16]),
		hw: gfbig.UseCLMUL(),
	}
	g.buildTable()
	return g
}

// GHASHStrategy names the GHASH multiply this GCM runs: "hwclmul" (the
// carry-less multiply instruction) or "table" (the 4-bit table in Go).
func (g *GCM) GHASHStrategy() string {
	if g.hw {
		return ghashHWClmul
	}
	return ghashTable
}

// buildTable fills htab from the subkey (h0, h1).
func (g *GCM) buildTable() {
	// hx[i] = x^i·H for i = 0..3; nibble bit 3-i selects hx[i].
	var hx [4][2]uint64
	hx[0] = [2]uint64{g.h0, g.h1}
	for i := 1; i < 4; i++ {
		v0, v1 := hx[i-1][0], hx[i-1][1]
		hx[i] = [2]uint64{v0>>1 ^ ghashR&-(v1&1), v1>>1 | v0<<63}
	}
	for v := 1; v < 16; v++ {
		for i := 0; i < 4; i++ {
			if v>>(3-i)&1 == 1 {
				g.htab[v][0] ^= hx[i][0]
				g.htab[v][1] ^= hx[i][1]
			}
		}
	}
}

// mulH multiplies the 128-bit block (big-endian halves) by H with the
// canonical GHASH shift-and-xor algorithm (NIST SP 800-38D, right-shift
// variant with R = 0xE1 << 120): the bit-serial reference the table
// multiply mul is tested against.
func (g *GCM) mulH(x0, x1 uint64) (z0, z1 uint64) {
	v0, v1 := g.h0, g.h1
	for i := 0; i < 128; i++ {
		var bit uint64
		if i < 64 {
			bit = x0 >> (63 - i) & 1
		} else {
			bit = x1 >> (127 - i) & 1
		}
		if bit == 1 {
			z0 ^= v0
			z1 ^= v1
		}
		lsb := v1 & 1
		v1 = v1>>1 | v0<<63
		v0 >>= 1
		if lsb == 1 {
			v0 ^= ghashR
		}
	}
	return
}

// mul returns x·H by Horner's rule over the 32 nibbles of x, highest
// powers (the low nibble of x1) first: z <- z·x^4 + p_v·H. Multiplying
// by x^4 shifts z right by four bits; the four coefficients that leave
// (x^124..x^127, the low nibble o of z1) re-enter as
// x^128+j = x^j·(1+x+x^2+x^7), i.e. ghashR shifted right by j for bit
// 3-j of o. Summed over the bits that is the carry-less product
// o·0xE1 = o ^ o<<5 ^ o<<6 ^ o<<7, placed at bit 53 — no reduction
// table and no branch.
func (g *GCM) mul(x0, x1 uint64) (z0, z1 uint64) {
	for _, w := range [2]uint64{x1, x0} {
		for j := 0; j < 64; j += 4 {
			o := z1 & 0xf
			z1 = z1>>4 | z0<<60
			z0 = z0>>4 ^ (o^o<<5^o<<6^o<<7)<<53
			t := &g.htab[w>>j&0xf]
			z0 ^= t[0]
			z1 ^= t[1]
		}
	}
	return
}

// mulBlock returns x·H on the multiply NewGCM picked.
func (g *GCM) mulBlock(x0, x1 uint64) (uint64, uint64) {
	if g.hw {
		return gfbig.GHASHMul(x0, x1, g.h0, g.h1)
	}
	return g.mul(x0, x1)
}

// absorb folds data into the running GHASH state y, one block per
// multiply; a final partial block is zero-padded.
func (g *GCM) absorb(y0, y1 uint64, data []byte) (uint64, uint64) {
	for len(data) >= BlockSize {
		y0, y1 = g.mulBlock(y0^binary.BigEndian.Uint64(data[0:8]), y1^binary.BigEndian.Uint64(data[8:16]))
		data = data[BlockSize:]
	}
	if len(data) > 0 {
		var blk [BlockSize]byte
		copy(blk[:], data)
		y0, y1 = g.mulBlock(y0^binary.BigEndian.Uint64(blk[0:8]), y1^binary.BigEndian.Uint64(blk[8:16]))
	}
	return y0, y1
}

// tag writes the 16-byte tag for (aad, ct) under the pre-counter block
// j0 into dst: GHASH over aad, ct and their bit lengths, masked with
// E_K(J0).
func (g *GCM) tag(dst []byte, j0 *[BlockSize]byte, aad, ct []byte) {
	y0, y1 := g.absorb(0, 0, aad)
	y0, y1 = g.absorb(y0, y1, ct)
	y0, y1 = g.mulBlock(y0^uint64(len(aad))*8, y1^uint64(len(ct))*8)
	var ek0 [BlockSize]byte
	g.c.Encrypt(ek0[:], j0[:])
	binary.BigEndian.PutUint64(dst[0:8], y0^binary.BigEndian.Uint64(ek0[0:8]))
	binary.BigEndian.PutUint64(dst[8:16], y1^binary.BigEndian.Uint64(ek0[8:16]))
}

// gctr XORs src with the keystream E_K(inc32(J0)), E_K(inc32^2(J0)), ...
// into dst, where inc32 adds one to the last four bytes of the block
// modulo 2^32. dst and src must overlap exactly or not at all. It runs
// on the block strategy of the GCM's cipher.
func (g *GCM) gctr(dst, src []byte, j0 *[BlockSize]byte) {
	if g.c.ni {
		gctrNI(g.c, dst, src, j0)
		return
	}
	gctrWord(g.c, dst, src, j0)
}

// gctrWord is gctr one block at a time on the word rounds: the
// reference the AES-instruction counter mode is checked against.
func gctrWord(c *Cipher, dst, src []byte, j0 *[BlockSize]byte) {
	ctr := *j0
	var ks [BlockSize]byte
	for n := binary.BigEndian.Uint32(j0[12:]) + 1; len(src) > 0; n++ {
		binary.BigEndian.PutUint32(ctr[12:], n)
		c.encryptWord(ks[:], ctr[:])
		k := subtle.XORBytes(dst, src, ks[:])
		dst, src = dst[k:], src[k:]
	}
}

// gctrNI is gctr on the AES instructions: the whole blocks in one
// gctrBlocks call, a final partial block through one block encrypt.
func gctrNI(c *Cipher, dst, src []byte, j0 *[BlockSize]byte) {
	ctr := *j0
	first := binary.BigEndian.Uint32(j0[12:]) + 1
	binary.BigEndian.PutUint32(ctr[12:], first)
	full := len(src) / BlockSize
	if full > 0 {
		gctrBlocks(c.rounds, &c.xk[0], &ctr, &dst[0], &src[0], full)
	}
	if tail := src[full*BlockSize:]; len(tail) > 0 {
		binary.BigEndian.PutUint32(ctr[12:], first+uint32(full))
		var ks [BlockSize]byte
		encryptBlockAsm(c.rounds, &c.xk[0], &ks[0], &ctr[0])
		subtle.XORBytes(dst[full*BlockSize:], tail, ks[:])
	}
}

// preCounter derives J0 = nonce ‖ 0^31 ‖ 1 from a 96-bit nonce.
func preCounter(nonce []byte) (j0 [BlockSize]byte, err error) {
	if len(nonce) != 12 {
		return j0, fmt.Errorf("aes: GCM nonce must be 12 bytes")
	}
	copy(j0[:], nonce)
	j0[15] = 1
	return j0, nil
}

// grow extends dst by n bytes, reusing its spare capacity when it
// suffices, and returns the whole slice and the n-byte extension.
func grow(dst []byte, n int) (whole, ext []byte) {
	if total := len(dst) + n; cap(dst) >= total {
		whole = dst[:total]
	} else {
		whole = make([]byte, total)
		copy(whole, dst)
	}
	return whole, whole[len(dst):]
}

// Seal encrypts and authenticates plaintext with the 12-byte nonce and
// additional authenticated data, returning ciphertext || 16-byte tag in
// a new slice. Its inputs are not modified.
func (g *GCM) Seal(nonce, plaintext, aad []byte) ([]byte, error) {
	return g.SealTo(make([]byte, 0, len(plaintext)+gcmTagSize), nonce, plaintext, aad)
}

// SealTo is Seal appending ciphertext || tag to dst and returning the
// extended slice, after the crypto/cipher AEAD convention: pass
// plaintext[:0] as dst to encrypt in place (the tag then needs 16 bytes
// of spare capacity, or the result moves to a new array). Otherwise
// dst's spare capacity must not overlap plaintext.
func (g *GCM) SealTo(dst, nonce, plaintext, aad []byte) ([]byte, error) {
	j0, err := preCounter(nonce)
	if err != nil {
		return nil, err
	}
	ret, out := grow(dst, len(plaintext)+gcmTagSize)
	ct := out[:len(plaintext)]
	g.gctr(ct, plaintext, &j0)
	g.tag(out[len(plaintext):], &j0, aad, ct)
	return ret, nil
}

// Open verifies and decrypts Seal's output into a new slice. It returns
// an error on authentication failure (and no plaintext). Its inputs are
// not modified.
func (g *GCM) Open(nonce, sealed, aad []byte) ([]byte, error) {
	return g.OpenTo(make([]byte, 0, max(len(sealed)-gcmTagSize, 0)), nonce, sealed, aad)
}

// OpenTo is Open appending the plaintext to dst and returning the
// extended slice, after the crypto/cipher AEAD convention: pass
// sealed[:0] as dst to decrypt in place. The tag is verified before
// anything is written, so on authentication failure dst's spare
// capacity — the sealed bytes themselves when decrypting in place — is
// left unchanged. Otherwise dst's spare capacity must not overlap
// sealed.
func (g *GCM) OpenTo(dst, nonce, sealed, aad []byte) ([]byte, error) {
	j0, err := preCounter(nonce)
	if err != nil {
		return nil, err
	}
	if len(sealed) < gcmTagSize {
		return nil, fmt.Errorf("aes: GCM ciphertext shorter than tag")
	}
	ct := sealed[:len(sealed)-gcmTagSize]
	var want [gcmTagSize]byte
	g.tag(want[:], &j0, aad, ct)
	if subtle.ConstantTimeCompare(want[:], sealed[len(ct):]) != 1 {
		return nil, fmt.Errorf("aes: GCM authentication failed")
	}
	ret, out := grow(dst, len(ct))
	g.gctr(out, ct, &j0)
	return ret, nil
}

// GHASHStrategies returns the GHASH multiplies this host can run, in
// the order VerifyGHASH checks them: "table" always, "hwclmul" where the
// CPU has the carry-less multiply instruction (whatever the kernel
// force).
func GHASHStrategies() []string {
	if gfbig.HasCLMUL() {
		return []string{ghashTable, ghashHWClmul}
	}
	return []string{ghashTable}
}

// VerifyGHASH checks every multiply of GHASHStrategies against the
// bit-serial reference mulH for vectors random subkeys, each on a
// random block and on the blocks 0, 1 and all ones, deterministically
// from seed. It returns nil when all agree bit for bit.
func VerifyGHASH(vectors int, seed int64) error {
	rng := uint64(seed)*0x9e3779b97f4a7c15 + 0x243f6a8885a308d3
	next := func() uint64 {
		rng ^= rng << 13
		rng ^= rng >> 7
		rng ^= rng << 17
		return rng
	}
	for v := 0; v < vectors; v++ {
		g := &GCM{h0: next(), h1: next()}
		g.buildTable()
		for _, x := range [][2]uint64{{next(), next()}, {0, 0}, {1 << 63, 0}, {^uint64(0), ^uint64(0)}} {
			w0, w1 := g.mulH(x[0], x[1])
			if z0, z1 := g.mul(x[0], x[1]); z0 != w0 || z1 != w1 {
				return fmt.Errorf("aes: GHASH %s multiply differs from the reference (vector %d)", ghashTable, v)
			}
			if !gfbig.HasCLMUL() {
				continue
			}
			if z0, z1 := gfbig.GHASHMul(x[0], x[1], g.h0, g.h1); z0 != w0 || z1 != w1 {
				return fmt.Errorf("aes: GHASH %s multiply differs from the reference (vector %d)", ghashHWClmul, v)
			}
		}
	}
	return nil
}
