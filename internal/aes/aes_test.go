package aes

import (
	"bytes"
	stdaes "crypto/aes"
	"crypto/cipher"
	"encoding/hex"
	"math/rand"
	"testing"
	"testing/quick"
)

func unhex(t *testing.T, s string) []byte {
	t.Helper()
	b, err := hex.DecodeString(s)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func TestSBoxKnownValues(t *testing.T) {
	// Spot values from the FIPS-197 S-box table.
	known := map[byte]byte{
		0x00: 0x63, 0x01: 0x7C, 0x53: 0xED, 0xFF: 0x16, 0x10: 0xCA, 0xAC: 0x91,
	}
	for in, want := range known {
		if got := SubByteComputed(in); got != want {
			t.Errorf("SBox(%#02x) = %#02x, want %#02x", in, got, want)
		}
	}
}

func TestSBoxInverseRoundTrip(t *testing.T) {
	for x := 0; x < 256; x++ {
		s := SubByteComputed(byte(x))
		if got := InvSubByteComputed(s); got != byte(x) {
			t.Fatalf("InvSBox(SBox(%#02x)) = %#02x", x, got)
		}
	}
}

func TestSBoxIsPermutationWithNoFixedPoints(t *testing.T) {
	seen := map[byte]bool{}
	for x := 0; x < 256; x++ {
		s := SubByteComputed(byte(x))
		if seen[s] {
			t.Fatalf("S-box not injective at %#02x", x)
		}
		seen[s] = true
		if s == byte(x) {
			t.Errorf("S-box fixed point at %#02x", x)
		}
	}
}

func TestFIPS197Appendix(t *testing.T) {
	// FIPS-197 Appendix B (AES-128) and C (128/192/256) vectors.
	cases := []struct{ key, pt, ct string }{
		{"2b7e151628aed2a6abf7158809cf4f3c", "3243f6a8885a308d313198a2e0370734", "3925841d02dc09fbdc118597196a0b32"},
		{"000102030405060708090a0b0c0d0e0f", "00112233445566778899aabbccddeeff", "69c4e0d86a7b0430d8cdb78070b4c55a"},
		{"000102030405060708090a0b0c0d0e0f1011121314151617", "00112233445566778899aabbccddeeff", "dda97ca4864cdfe06eaf70a0ec0d7191"},
		{"000102030405060708090a0b0c0d0e0f101112131415161718191a1b1c1d1e1f", "00112233445566778899aabbccddeeff", "8ea2b7ca516745bfeafc49904b496089"},
	}
	for i, c := range cases {
		ci, err := NewCipher(unhex(t, c.key))
		if err != nil {
			t.Fatal(err)
		}
		got := make([]byte, 16)
		ci.Encrypt(got, unhex(t, c.pt))
		if !bytes.Equal(got, unhex(t, c.ct)) {
			t.Errorf("case %d: ct = %x, want %s", i, got, c.ct)
		}
		back := make([]byte, 16)
		ci.Decrypt(back, got)
		if !bytes.Equal(back, unhex(t, c.pt)) {
			t.Errorf("case %d: decrypt round trip failed", i)
		}
	}
}

func TestAgainstStdlibQuick(t *testing.T) {
	// Property: our GF-based AES matches crypto/aes and the composition
	// of the exported round functions (encryptRounds) for random keys
	// and blocks at every key size, also in place.
	for _, ks := range []int{16, 24, 32} {
		ks := ks
		prop := func(seed int64) bool {
			rng := rand.New(rand.NewSource(seed))
			key := make([]byte, ks)
			rng.Read(key)
			pt := make([]byte, 16)
			rng.Read(pt)
			ours, err := NewCipher(key)
			if err != nil {
				return false
			}
			ref, err := stdaes.NewCipher(key)
			if err != nil {
				return false
			}
			a, b, r := make([]byte, 16), make([]byte, 16), make([]byte, 16)
			ours.Encrypt(a, pt)
			ref.Encrypt(b, pt)
			encryptRounds(ours, r, pt)
			if !bytes.Equal(a, b) || !bytes.Equal(a, r) {
				return false
			}
			inPlace := append([]byte(nil), pt...)
			ours.Encrypt(inPlace, inPlace)
			if !bytes.Equal(inPlace, a) {
				return false
			}
			ours.Decrypt(a, b)
			return bytes.Equal(a, pt)
		}
		if err := quick.Check(prop, &quick.Config{MaxCount: 40}); err != nil {
			t.Errorf("key size %d: %v", ks, err)
		}
	}
}

func TestKeySizeValidation(t *testing.T) {
	for _, n := range []int{0, 8, 15, 17, 33} {
		if _, err := NewCipher(make([]byte, n)); err == nil {
			t.Errorf("key size %d accepted", n)
		}
	}
}

func TestShortBlockPanics(t *testing.T) {
	c, _ := NewCipher(make([]byte, 16))
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on short block")
		}
	}()
	c.Encrypt(make([]byte, 15), make([]byte, 16))
}

func TestStateRoundTrip(t *testing.T) {
	blk := make([]byte, 16)
	for i := range blk {
		blk[i] = byte(i * 7)
	}
	if !bytes.Equal(LoadState(blk).Bytes(), blk) {
		t.Fatal("state serialization not inverse")
	}
}

func TestShiftRowsInverse(t *testing.T) {
	s := LoadState([]byte("0123456789abcdef"))
	orig := s
	ShiftRows(&s)
	if s == orig {
		t.Fatal("ShiftRows is identity")
	}
	InvShiftRows(&s)
	if s != orig {
		t.Fatal("InvShiftRows does not invert ShiftRows")
	}
}

func TestMixColumnsInverse(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 100; trial++ {
		blk := make([]byte, 16)
		rng.Read(blk)
		s := LoadState(blk)
		orig := s
		MixColumns(&s)
		InvMixColumns(&s)
		if s != orig {
			t.Fatal("InvMixColumns does not invert MixColumns")
		}
	}
}

func TestMixColumnsKnownVector(t *testing.T) {
	// FIPS-197 worked example column: db 13 53 45 -> 8e 4d a1 bc.
	var s State
	s[0][0], s[1][0], s[2][0], s[3][0] = 0xdb, 0x13, 0x53, 0x45
	MixColumns(&s)
	want := [4]byte{0x8e, 0x4d, 0xa1, 0xbc}
	for r := 0; r < 4; r++ {
		if s[r][0] != want[r] {
			t.Fatalf("MixColumns row %d = %#02x, want %#02x", r, s[r][0], want[r])
		}
	}
}

func TestKeyExpansionFIPS(t *testing.T) {
	// FIPS-197 A.1: last round key of the 2b7e... AES-128 key schedule.
	c, _ := NewCipher(unhex(t, "2b7e151628aed2a6abf7158809cf4f3c"))
	last := c.RoundKey(10)
	want := unhex(t, "d014f9a8c9ee2589e13f0cc8b6630ca6")
	if !bytes.Equal(last, want) {
		t.Fatalf("round key 10 = %x, want %x", last, want)
	}
	if c.Rounds() != 10 {
		t.Fatal("AES-128 rounds != 10")
	}
}

func TestCTRMatchesStdlib(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	key := make([]byte, 16)
	iv := make([]byte, 16)
	rng.Read(key)
	rng.Read(iv)
	msg := make([]byte, 100) // deliberately not block aligned
	rng.Read(msg)

	ours, _ := NewCipher(key)
	got := make([]byte, len(msg))
	if err := ours.EncryptCTR(got, msg, iv); err != nil {
		t.Fatal(err)
	}

	ref, _ := stdaes.NewCipher(key)
	want := make([]byte, len(msg))
	cipher.NewCTR(ref, iv).XORKeyStream(want, msg)
	if !bytes.Equal(got, want) {
		t.Fatal("CTR output differs from crypto/cipher")
	}
	// CTR is its own inverse.
	back := make([]byte, len(msg))
	if err := ours.EncryptCTR(back, got, iv); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(back, msg) {
		t.Fatal("CTR round trip failed")
	}
}

func TestCTRCounterOverflow(t *testing.T) {
	key := make([]byte, 16)
	iv := bytes.Repeat([]byte{0xFF}, 16) // counter wraps immediately
	ours, _ := NewCipher(key)
	ref, _ := stdaes.NewCipher(key)
	msg := make([]byte, 64)
	got := make([]byte, 64)
	want := make([]byte, 64)
	if err := ours.EncryptCTR(got, msg, iv); err != nil {
		t.Fatal(err)
	}
	cipher.NewCTR(ref, iv).XORKeyStream(want, msg)
	if !bytes.Equal(got, want) {
		t.Fatal("CTR wrap-around differs from crypto/cipher")
	}
}

func TestCBCMatchesStdlib(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	key := make([]byte, 32)
	iv := make([]byte, 16)
	rng.Read(key)
	rng.Read(iv)
	msg := make([]byte, 96)
	rng.Read(msg)

	ours, _ := NewCipher(key)
	got := make([]byte, len(msg))
	if err := ours.EncryptCBC(got, msg, iv); err != nil {
		t.Fatal(err)
	}
	ref, _ := stdaes.NewCipher(key)
	want := make([]byte, len(msg))
	cipher.NewCBCEncrypter(ref, iv).CryptBlocks(want, msg)
	if !bytes.Equal(got, want) {
		t.Fatal("CBC encrypt differs from crypto/cipher")
	}
	back := make([]byte, len(msg))
	if err := ours.DecryptCBC(back, got, iv); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(back, msg) {
		t.Fatal("CBC round trip failed")
	}
}

func TestModeValidation(t *testing.T) {
	c, _ := NewCipher(make([]byte, 16))
	buf := make([]byte, 32)
	if err := c.EncryptCTR(buf, buf, make([]byte, 8)); err == nil {
		t.Error("short CTR iv accepted")
	}
	if err := c.EncryptCBC(buf, buf[:20], make([]byte, 16)); err == nil {
		t.Error("unaligned CBC plaintext accepted")
	}
	if err := c.DecryptCBC(buf, buf[:20], make([]byte, 16)); err == nil {
		t.Error("unaligned CBC ciphertext accepted")
	}
	if err := c.EncryptCBC(buf[:16], buf, make([]byte, 16)); err == nil {
		t.Error("short CBC dst accepted")
	}
}

func TestDecryptIsLeftInverseQuick(t *testing.T) {
	c, _ := NewCipher([]byte("0123456789abcdef"))
	prop := func(blk [16]byte) bool {
		ct := make([]byte, 16)
		pt := make([]byte, 16)
		c.Encrypt(ct, blk[:])
		c.Decrypt(pt, ct)
		return bytes.Equal(pt, blk[:])
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func BenchmarkEncryptBlock(b *testing.B) {
	c, _ := NewCipher(make([]byte, 16))
	blk := make([]byte, 16)
	b.SetBytes(16)
	for i := 0; i < b.N; i++ {
		c.Encrypt(blk, blk)
	}
}

func BenchmarkEncryptBlockRounds(b *testing.B) {
	c, _ := NewCipher(make([]byte, 16))
	blk := make([]byte, 16)
	b.SetBytes(16)
	for i := 0; i < b.N; i++ {
		encryptRounds(c, blk, blk)
	}
}
