// Package aes implements AES-128/192/256 from first principles on top of
// Galois-field arithmetic (repro/internal/gf), the way the paper maps it
// onto the GF processor: the S-box is the GF(2^8) multiplicative inverse
// followed by an affine transform (no lookup table is mathematically
// required), and MixColumns/InvMixColumns are inner products in
// GF(2^8)/x^8+x^4+x^3+x+1.
//
// Encrypt, the block function behind CTR and GCM, has two strategies,
// picked once per Cipher by the rule gfbig.UseCLMUL sets for the
// carry-less multiply: where CPUID reports the AES instructions, and
// the scalar kernel tier is not forced, it runs on them ("aesni",
// aes_amd64.s), and GCM's counter mode encrypts eight counter blocks per
// pass there. Otherwise it runs on four big-endian column words ("word"):
// SubBytes+ShiftRows are 16 lookups in the 256-byte S-box and MixColumns
// is 4-lane SWAR xtime, the software image of the paper's 4-way SIMD GF
// multiply. The exported round functions (SubBytes, ShiftRows,
// MixColumns, AddRoundKey on State) stay the byte-wise reference that
// internal/kernels meters and that VerifyBlock composes into the
// expected Encrypt output; Decrypt still runs them directly.
//
// Timing: the implementation is validated against the standard library
// crypto/aes and the FIPS-197 vectors in the tests. On the aesni
// strategy a block has no table lookup and no branch on key or data.
// The word strategy is not constant time: it looks up the 256-byte
// S-box with secret state bytes. Where the CPU lacks a carry-less
// multiply instruction (or under the scalar kernel force) GHASH
// (gcm.go) looks up a 256-byte per-key table (the 16 multiples of H)
// with nibbles of its running state; a cache-timing observer can learn
// from either. The hwclmul GHASH has no secret-indexed table. That is
// the same class as the byte-wise round functions (the S-box and the
// 256-byte MixColumns coefficient rows), and no table indexed by secret
// state is larger: there are no 1-4 KB T-tables. Decrypt always runs
// the byte-wise rounds. Treat the package as a reference of the paper's
// datapath, not a hardened production cipher.
//
// Concurrency: a *Cipher is immutable once NewCipher has expanded the
// key schedule, and a *GCM is immutable once NewGCM has derived the
// GHASH subkey and its table; Encrypt, Decrypt, Seal, Open and their
// To forms keep all per-call state in locals (the package-level sbox
// tables are written only at init). One shared instance may therefore
// be used from many goroutines concurrently, as the
// repro/internal/pipeline worker pools do; the CTR/CBC helpers in
// modes.go take the IV per call and are equally safe as long as callers
// pass distinct dst buffers.
package aes

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/bits"

	"repro/internal/gf"
)

// BlockSize is the AES block size in bytes.
const BlockSize = 16

// Field returns the AES Galois field GF(2^8)/x^8+x^4+x^3+x+1.
func Field() *gf.Field { return aesField }

var aesField = gf.AES()

// sbox/invSbox are derived — not transcribed — from the field inverse and
// affine transform at package init, mirroring the paper's claim that the
// S-box "is realized directly with the multiplicative inverse operation".
var sbox, invSbox [256]byte

func init() {
	for x := 0; x < 256; x++ {
		s := SubByteComputed(byte(x))
		sbox[x] = s
		invSbox[s] = byte(x)
	}
}

// SubByteComputed evaluates the AES S-box arithmetically:
// inverse in GF(2^8) (with 0 -> 0), then the FIPS-197 affine transform.
func SubByteComputed(x byte) byte {
	var inv byte
	if x != 0 {
		inv = byte(aesField.Inv(gf.Elem(x)))
	}
	return affine(inv)
}

// InvSubByteComputed evaluates the inverse S-box arithmetically: inverse
// affine transform, then GF(2^8) inversion.
func InvSubByteComputed(x byte) byte {
	y := invAffine(x)
	if y == 0 {
		return 0
	}
	return byte(aesField.Inv(gf.Elem(y)))
}

// affine applies b_i = a_i ^ a_{i+4} ^ a_{i+5} ^ a_{i+6} ^ a_{i+7} ^ c_i
// (indices mod 8) with c = 0x63.
func affine(a byte) byte {
	var b byte
	for i := 0; i < 8; i++ {
		bit := (a>>i ^ a>>((i+4)%8) ^ a>>((i+5)%8) ^ a>>((i+6)%8) ^ a>>((i+7)%8)) & 1
		b |= bit << i
	}
	return b ^ 0x63
}

// invAffine inverts affine: a_i = b_{i+2} ^ b_{i+5} ^ b_{i+7} ^ d_i with
// d = 0x05.
func invAffine(b byte) byte {
	var a byte
	for i := 0; i < 8; i++ {
		bit := (b>>((i+2)%8) ^ b>>((i+5)%8) ^ b>>((i+7)%8)) & 1
		a |= bit << i
	}
	return a ^ 0x05
}

// Block-encrypt strategies, as BlockStrategy reports them.
const (
	blockWord  = "word"
	blockAESNI = "aesni"
)

// useAESNI is the rule gfbig.UseCLMUL sets for the carry-less multiply:
// the AES instructions serve where the CPU has them, unless the scalar
// kernel force is on. Nothing is timed.
func useAESNI() bool { return hasAESNI && !gf.ScalarKernelsForced() }

// Cipher is an AES cipher with an expanded key schedule.
type Cipher struct {
	rounds int      // 10, 12 or 14
	enc    [][]byte // rounds+1 round keys of 16 bytes, encryption order
	encW   []uint32 // the same keys as big-endian column words, 4 per round
	xk     []byte   // the same keys flattened, for the AES instructions
	ni     bool     // Encrypt runs on the AES instructions
}

// NewCipher creates an AES cipher for a 16-, 24- or 32-byte key.
func NewCipher(key []byte) (*Cipher, error) {
	var rounds int
	switch len(key) {
	case 16:
		rounds = 10
	case 24:
		rounds = 12
	case 32:
		rounds = 14
	default:
		return nil, fmt.Errorf("aes: invalid key size %d", len(key))
	}
	c := &Cipher{rounds: rounds, ni: useAESNI()}
	c.enc = expandKey(key, rounds)
	c.encW = make([]uint32, 0, 4*(rounds+1))
	c.xk = make([]byte, 0, 16*(rounds+1))
	for _, rk := range c.enc {
		for col := 0; col < 16; col += 4 {
			c.encW = append(c.encW, binary.BigEndian.Uint32(rk[col:]))
		}
		c.xk = append(c.xk, rk...)
	}
	return c, nil
}

// BlockStrategy names the block encrypt this Cipher runs: "aesni" (the
// AES instructions) or "word" (the Go column-word rounds).
func (c *Cipher) BlockStrategy() string {
	if c.ni {
		return blockAESNI
	}
	return blockWord
}

// Rounds returns the number of rounds (10, 12 or 14).
func (c *Cipher) Rounds() int { return c.rounds }

// RoundKey returns round key r (0..rounds) as 16 bytes.
func (c *Cipher) RoundKey(r int) []byte { return append([]byte(nil), c.enc[r]...) }

// expandKey performs the FIPS-197 key expansion. The RotWord/SubWord step
// is the "vectorizable with 4 (a row)" kernel of the paper's Table 5.
func expandKey(key []byte, rounds int) [][]byte {
	nk := len(key) / 4
	nw := 4 * (rounds + 1)
	w := make([][4]byte, nw)
	for i := 0; i < nk; i++ {
		copy(w[i][:], key[4*i:4*i+4])
	}
	rcon := byte(1)
	for i := nk; i < nw; i++ {
		t := w[i-1]
		if i%nk == 0 {
			// RotWord + SubWord + Rcon
			t = [4]byte{sbox[t[1]], sbox[t[2]], sbox[t[3]], sbox[t[0]]}
			t[0] ^= rcon
			rcon = Xtime(rcon)
		} else if nk > 6 && i%nk == 4 {
			t = [4]byte{sbox[t[0]], sbox[t[1]], sbox[t[2]], sbox[t[3]]}
		}
		for j := 0; j < 4; j++ {
			w[i][j] = w[i-nk][j] ^ t[j]
		}
	}
	keys := make([][]byte, rounds+1)
	for r := range keys {
		k := make([]byte, 16)
		for c := 0; c < 4; c++ {
			copy(k[4*c:], w[4*r+c][:])
		}
		keys[r] = k
	}
	return keys
}

// State is the 4x4 AES state. state[r][c] follows FIPS-197: byte i of the
// input maps to state[i%4][i/4] (column-major).
type State [4][4]byte

// LoadState fills a state from a 16-byte block.
func LoadState(block []byte) State {
	var s State
	for i := 0; i < 16; i++ {
		s[i%4][i/4] = block[i]
	}
	return s
}

// Bytes serializes the state back to a 16-byte block.
func (s State) Bytes() []byte {
	out := make([]byte, 16)
	for i := 0; i < 16; i++ {
		out[i] = s[i%4][i/4]
	}
	return out
}

// AddRoundKey XORs the round key into the state — pure GF addition,
// "vectorizable with 16 independent state bytes" (Table 5).
func AddRoundKey(s *State, rk []byte) {
	for i := 0; i < 16; i++ {
		s[i%4][i/4] ^= rk[i]
	}
}

// SubBytes applies the S-box to every state byte.
func SubBytes(s *State) {
	for r := 0; r < 4; r++ {
		for c := 0; c < 4; c++ {
			s[r][c] = sbox[s[r][c]]
		}
	}
}

// InvSubBytes applies the inverse S-box.
func InvSubBytes(s *State) {
	for r := 0; r < 4; r++ {
		for c := 0; c < 4; c++ {
			s[r][c] = invSbox[s[r][c]]
		}
	}
}

// ShiftRows rotates row r left by r — the nonvectorizable data movement of
// Table 5.
func ShiftRows(s *State) {
	for r := 1; r < 4; r++ {
		var tmp [4]byte
		for c := 0; c < 4; c++ {
			tmp[c] = s[r][(c+r)%4]
		}
		s[r] = tmp
	}
}

// InvShiftRows rotates row r right by r.
func InvShiftRows(s *State) {
	for r := 1; r < 4; r++ {
		var tmp [4]byte
		for c := 0; c < 4; c++ {
			tmp[(c+r)%4] = s[r][c]
		}
		s[r] = tmp
	}
}

// mixColCoeff and invMixColCoeff are the circulant first rows of the
// MixColumns matrices. The paper highlights that MixCol's {02,03,01,01}
// admits shift/xor tricks on a CPU while InvMixCol's {0E,0B,0D,09} does
// not — but a GF multiplier is agnostic to the coefficient values.
var (
	mixColCoeff    = [4]byte{0x02, 0x03, 0x01, 0x01}
	invMixColCoeff = [4]byte{0x0E, 0x0B, 0x0D, 0x09}
)

// mixT/invMixT hold the four mul-by-coefficient rows of the (inverse)
// MixColumns matrices, derived at init from the field's bulk kernels:
// mixT[i][x] = coeff[i] * x. One table lookup per product replaces
// Field.Mul's two lookups plus branch in the block cipher's hottest
// non-S-box step — the software image of feeding the paper's wide GF
// multiplier with constant operands. The derivation goes through the
// kernel tier dispatch (docs/GF.md), so whichever tier serves it, the
// differential selftest guarantees identical tables; the per-block hot
// path below is tier-independent from then on.
var mixT, invMixT [4][256]byte

func init() {
	k := aesField.Kernels()
	src := make([]gf.Elem, 256)
	for x := range src {
		src[x] = gf.Elem(x)
	}
	row := make([]gf.Elem, 256)
	for i := 0; i < 4; i++ {
		k.MulConstSlice(row, src, gf.Elem(mixColCoeff[i]))
		for x, v := range row {
			mixT[i][x] = byte(v)
		}
		k.MulConstSlice(row, src, gf.Elem(invMixColCoeff[i]))
		for x, v := range row {
			invMixT[i][x] = byte(v)
		}
	}
}

// Xtime multiplies by x (0x02) in the AES field — the doubling primitive
// classic byte-sliced AES implementations build MixColumns from.
func Xtime(b byte) byte { return mixT[0][b] }

// MixColumns multiplies each state column by the MixColumns matrix in
// GF(2^8) — 4 independent 4x4 GF matrix-vector products (Table 5),
// table-driven via the precomputed coefficient rows.
func MixColumns(s *State) { mixWith(s, &mixT) }

// InvMixColumns applies the inverse matrix.
func InvMixColumns(s *State) { mixWith(s, &invMixT) }

// mixWith applies the circulant matrix whose mul-by-coefficient rows are
// t: out[r] = sum_i t[(i-r+4)%4][col[i]], fully unrolled per column.
func mixWith(s *State, t *[4][256]byte) {
	for c := 0; c < 4; c++ {
		a0, a1, a2, a3 := s[0][c], s[1][c], s[2][c], s[3][c]
		s[0][c] = t[0][a0] ^ t[1][a1] ^ t[2][a2] ^ t[3][a3]
		s[1][c] = t[3][a0] ^ t[0][a1] ^ t[1][a2] ^ t[2][a3]
		s[2][c] = t[2][a0] ^ t[3][a1] ^ t[0][a2] ^ t[1][a3]
		s[3][c] = t[1][a0] ^ t[2][a1] ^ t[3][a2] ^ t[0][a3]
	}
}

// mixWithGF is the arithmetic reference for mixWith: the same circulant
// product evaluated through Field.Mul. Tests assert the table path agrees
// with it for both coefficient sets over all byte values.
func mixWithGF(s *State, coeff [4]byte) {
	for c := 0; c < 4; c++ {
		var col, out [4]byte
		for r := 0; r < 4; r++ {
			col[r] = s[r][c]
		}
		for r := 0; r < 4; r++ {
			var acc gf.Elem
			for i := 0; i < 4; i++ {
				acc ^= aesField.Mul(gf.Elem(coeff[(i-r+4)%4]), gf.Elem(col[i]))
			}
			out[r] = byte(acc)
		}
		for r := 0; r < 4; r++ {
			s[r][c] = out[r]
		}
	}
}

// Encrypt encrypts one 16-byte block: dst = AES(src), on the AES
// instructions or the word rounds (BlockStrategy). dst and src may
// overlap. It panics on short slices like crypto/cipher.Block does.
func (c *Cipher) Encrypt(dst, src []byte) {
	if len(src) < BlockSize || len(dst) < BlockSize {
		panic("aes: short block")
	}
	if c.ni {
		encryptBlockAsm(c.rounds, &c.xk[0], &dst[0], &src[0])
		return
	}
	c.encryptWord(dst, src)
}

// encryptWord is the word strategy of Encrypt. The state is four
// big-endian column words (row 0 in the top byte), so a round is:
// SubBytes+ShiftRows as 16 S-box lookups that gather each output column
// from the diagonal of the input, MixColumns as 4-lane SWAR arithmetic
// per column (mixColumn), AddRoundKey as four word XORs with the keys
// NewCipher packed. It equals encryptRounds, the composition of the
// exported round functions.
func (c *Cipher) encryptWord(dst, src []byte) {
	rk := c.encW
	s0 := binary.BigEndian.Uint32(src[0:4]) ^ rk[0]
	s1 := binary.BigEndian.Uint32(src[4:8]) ^ rk[1]
	s2 := binary.BigEndian.Uint32(src[8:12]) ^ rk[2]
	s3 := binary.BigEndian.Uint32(src[12:16]) ^ rk[3]
	for r := 1; r < c.rounds; r++ {
		t0, t1, t2, t3 := subShift(s0, s1, s2, s3)
		k := rk[4*r : 4*r+4]
		s0 = mixColumn(t0) ^ k[0]
		s1 = mixColumn(t1) ^ k[1]
		s2 = mixColumn(t2) ^ k[2]
		s3 = mixColumn(t3) ^ k[3]
	}
	t0, t1, t2, t3 := subShift(s0, s1, s2, s3)
	k := rk[4*c.rounds : 4*c.rounds+4]
	binary.BigEndian.PutUint32(dst[0:4], t0^k[0])
	binary.BigEndian.PutUint32(dst[4:8], t1^k[1])
	binary.BigEndian.PutUint32(dst[8:12], t2^k[2])
	binary.BigEndian.PutUint32(dst[12:16], t3^k[3])
}

// subShift is SubBytes followed by ShiftRows on column words: row r of
// output column j is the S-box of row r of input column (j+r) mod 4.
func subShift(s0, s1, s2, s3 uint32) (t0, t1, t2, t3 uint32) {
	t0 = uint32(sbox[s0>>24])<<24 | uint32(sbox[s1>>16&0xff])<<16 | uint32(sbox[s2>>8&0xff])<<8 | uint32(sbox[s3&0xff])
	t1 = uint32(sbox[s1>>24])<<24 | uint32(sbox[s2>>16&0xff])<<16 | uint32(sbox[s3>>8&0xff])<<8 | uint32(sbox[s0&0xff])
	t2 = uint32(sbox[s2>>24])<<24 | uint32(sbox[s3>>16&0xff])<<16 | uint32(sbox[s0>>8&0xff])<<8 | uint32(sbox[s1&0xff])
	t3 = uint32(sbox[s3>>24])<<24 | uint32(sbox[s0>>16&0xff])<<16 | uint32(sbox[s1>>8&0xff])<<8 | uint32(sbox[s2&0xff])
	return
}

// xtime4 doubles the four bytes of w in the AES field at once: each
// lane shifts left by one and, where its top bit fell out, takes the
// 0x1B reduction. Branch-free and table-free — 4-lane SWAR xtime.
func xtime4(w uint32) uint32 {
	return (w&0x7f7f7f7f)<<1 ^ (w>>7&0x01010101)*0x1b
}

// mixColumn multiplies the column word a = (a0,a1,a2,a3) by the
// circulant MixColumns matrix {02,03,01,01}. Row i is
// 2a_i ^ 3a_i+1 ^ a_i+2 ^ a_i+3 = 2(a_i ^ a_i+1) ^ a_i+1 ^ a_i+2 ^ a_i+3
// (indices mod 4). With r = a rotated one byte (a1,a2,a3,a0) and
// t = a ^ r that is xtime4(t) ^ r ^ (t rotated two bytes): one SWAR
// doubling serves all four rows.
func mixColumn(a uint32) uint32 {
	r := bits.RotateLeft32(a, 8)
	t := a ^ r
	return xtime4(t) ^ r ^ bits.RotateLeft32(t, 16)
}

// Decrypt decrypts one 16-byte block using the straightforward inverse
// cipher (FIPS-197 Section 5.3).
func (c *Cipher) Decrypt(dst, src []byte) {
	if len(src) < BlockSize || len(dst) < BlockSize {
		panic("aes: short block")
	}
	s := LoadState(src[:16])
	AddRoundKey(&s, c.enc[c.rounds])
	for r := c.rounds - 1; r >= 1; r-- {
		InvShiftRows(&s)
		InvSubBytes(&s)
		AddRoundKey(&s, c.enc[r])
		InvMixColumns(&s)
	}
	InvShiftRows(&s)
	InvSubBytes(&s)
	AddRoundKey(&s, c.enc[0])
	copy(dst, s.Bytes())
}

// BlockSize makes *Cipher satisfy crypto/cipher.Block.
func (c *Cipher) BlockSize() int { return BlockSize }

// encryptRounds is the byte-wise reference for Encrypt: the FIPS-197
// cipher composed from the exported round functions on State.
func encryptRounds(c *Cipher, dst, src []byte) {
	s := LoadState(src[:16])
	AddRoundKey(&s, c.enc[0])
	for r := 1; r < c.rounds; r++ {
		SubBytes(&s)
		ShiftRows(&s)
		MixColumns(&s)
		AddRoundKey(&s, c.enc[r])
	}
	SubBytes(&s)
	ShiftRows(&s)
	AddRoundKey(&s, c.enc[c.rounds])
	copy(dst, s.Bytes())
}

// BlockStrategies returns the block encrypts this host can run, in the
// order VerifyBlock checks them: "word" always, "aesni" where the CPU
// has the AES instructions (whatever the kernel force).
func BlockStrategies() []string {
	if hasAESNI {
		return []string{blockWord, blockAESNI}
	}
	return []string{blockWord}
}

// VerifyBlock checks every strategy of BlockStrategies against
// encryptRounds for vectors random keys of each size, each on a random
// block and on the blocks 0 and all ones; where the CPU has the AES
// instructions it also checks their counter mode against the Go one
// (gctrWord) on lengths that cross the eight-block stride, end in
// partial blocks and wrap the 32-bit counter. Inputs derive from seed,
// so a failure reproduces. It returns nil when all agree bit for bit.
func VerifyBlock(vectors int, seed int64) error {
	rng := uint64(seed)*0x9e3779b97f4a7c15 + 0x243f6a8885a308d3
	fill := func(b []byte) []byte {
		for i := range b {
			rng ^= rng << 13
			rng ^= rng >> 7
			rng ^= rng << 17
			b[i] = byte(rng >> 56)
		}
		return b
	}
	want, got := make([]byte, 300), make([]byte, 300)
	src := fill(make([]byte, 300))
	for v := 0; v < vectors; v++ {
		for _, kl := range []int{16, 24, 32} {
			c, err := NewCipher(fill(make([]byte, kl)))
			if err != nil {
				return err
			}
			blocks := [][]byte{fill(make([]byte, BlockSize)), make([]byte, BlockSize), bytes.Repeat([]byte{0xff}, BlockSize)}
			for _, blk := range blocks {
				encryptRounds(c, want, blk)
				c.encryptWord(got, blk)
				if !bytes.Equal(got[:BlockSize], want[:BlockSize]) {
					return fmt.Errorf("aes: %s block encrypt differs from the round functions (AES-%d, vector %d)", blockWord, 8*kl, v)
				}
				if !hasAESNI {
					continue
				}
				encryptBlockAsm(c.rounds, &c.xk[0], &got[0], &blk[0])
				if !bytes.Equal(got[:BlockSize], want[:BlockSize]) {
					return fmt.Errorf("aes: %s block encrypt differs from the round functions (AES-%d, vector %d)", blockAESNI, 8*kl, v)
				}
			}
			if !hasAESNI {
				continue
			}
			var j0 [BlockSize]byte
			fill(j0[:])
			if v%2 == 1 {
				j0[12], j0[13], j0[14], j0[15] = 0xff, 0xff, 0xff, byte(0xf0+v%16) // wraps within the lengths below
			}
			for _, n := range []int{1, 15, 16, 17, 127, 128, 129, 143, 144, 145, 255, 256, 300} {
				gctrWord(c, want[:n], src[:n], &j0)
				gctrNI(c, got[:n], src[:n], &j0)
				if !bytes.Equal(got[:n], want[:n]) {
					return fmt.Errorf("aes: %s counter mode differs from %s over %d bytes (AES-%d, vector %d)", blockAESNI, blockWord, n, 8*kl, v)
				}
			}
		}
	}
	return nil
}
