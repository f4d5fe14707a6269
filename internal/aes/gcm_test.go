package aes

import (
	"bytes"
	stdaes "crypto/aes"
	"crypto/cipher"
	"math/rand"
	"testing"

	"repro/internal/gf"
	"repro/internal/gfbig"
)

func TestGCMMatchesStdlib(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, ks := range []int{16, 24, 32} {
		for _, ptLen := range []int{0, 1, 16, 33, 64, 100} {
			for _, aadLen := range []int{0, 7, 16, 40} {
				key := make([]byte, ks)
				nonce := make([]byte, 12)
				pt := make([]byte, ptLen)
				aad := make([]byte, aadLen)
				rng.Read(key)
				rng.Read(nonce)
				rng.Read(pt)
				rng.Read(aad)

				ours, _ := NewCipher(key)
				got, err := ours.NewGCM().Seal(nonce, pt, aad)
				if err != nil {
					t.Fatal(err)
				}
				ref, _ := stdaes.NewCipher(key)
				g, _ := cipher.NewGCM(ref)
				want := g.Seal(nil, nonce, pt, aad)
				if !bytes.Equal(got, want) {
					t.Fatalf("ks=%d pt=%d aad=%d: sealed output differs from crypto/cipher", ks, ptLen, aadLen)
				}
			}
		}
	}
}

func TestGCMOpenRoundTripAndTamper(t *testing.T) {
	key := []byte("0123456789abcdef")
	c, _ := NewCipher(key)
	g := c.NewGCM()
	nonce := []byte("12-byte-nonc")
	pt := []byte("authenticated and encrypted packet payload")
	aad := []byte("packet header")
	sealed, err := g.Seal(nonce, pt, aad)
	if err != nil {
		t.Fatal(err)
	}
	back, err := g.Open(nonce, sealed, aad)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(back, pt) {
		t.Fatal("round trip failed")
	}
	// Any single-bit tamper must fail authentication, and an in-place
	// OpenTo that fails must write nothing into the sealed bytes.
	for _, idx := range []int{0, len(sealed) / 2, len(sealed) - 1} {
		bad := append([]byte(nil), sealed...)
		bad[idx] ^= 1
		if _, err := g.Open(nonce, bad, aad); err == nil {
			t.Fatalf("tampered byte %d accepted", idx)
		}
		before := append([]byte(nil), bad...)
		if _, err := g.OpenTo(bad[:0], nonce, bad, aad); err == nil {
			t.Fatalf("tampered byte %d accepted in place", idx)
		}
		if !bytes.Equal(bad, before) {
			t.Fatalf("tampered byte %d: failed in-place OpenTo modified the buffer", idx)
		}
	}
	// Wrong AAD must fail.
	if _, err := g.Open(nonce, sealed, []byte("other header")); err == nil {
		t.Fatal("wrong aad accepted")
	}
}

func TestGCMValidation(t *testing.T) {
	c, _ := NewCipher(make([]byte, 16))
	g := c.NewGCM()
	if _, err := g.Seal(make([]byte, 11), nil, nil); err == nil {
		t.Error("11-byte nonce accepted")
	}
	if _, err := g.Open(make([]byte, 12), make([]byte, 8), nil); err == nil {
		t.Error("too-short ciphertext accepted")
	}
}

// TestGHASHTableMatchesShiftReference: the 4-bit table multiply
// agrees with the bit-serial shift-and-xor reference mulH for random
// subkeys and blocks, and on the edge cases: x = 0, x = 1 (the
// polynomial 1, whose encoding is the top bit of x0, so x·H = H), and
// subkeys with only bit 0 or only bit 127 set.
func TestGHASHTableMatchesShiftReference(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	check := func(g *GCM, x0, x1 uint64) {
		t.Helper()
		z0, z1 := g.mul(x0, x1)
		w0, w1 := g.mulH(x0, x1)
		if z0 != w0 || z1 != w1 {
			t.Fatalf("H=%016x%016x x=%016x%016x: table %016x%016x != reference %016x%016x",
				g.h0, g.h1, x0, x1, z0, z1, w0, w1)
		}
	}
	var gs []*GCM
	for trial := 0; trial < 20; trial++ {
		key := make([]byte, 16)
		rng.Read(key)
		c, _ := NewCipher(key)
		gs = append(gs, c.NewGCM())
	}
	// Crafted subkeys: bit 0 (x^0, the top bit of h0), bit 127 (x^127,
	// the low bit of h1), both, and all ones.
	for _, h := range [][2]uint64{{1 << 63, 0}, {0, 1}, {1 << 63, 1}, {^uint64(0), ^uint64(0)}} {
		gs = append(gs, withSubkey(h[0], h[1]))
	}
	for _, g := range gs {
		check(g, 0, 0)
		check(g, 1<<63, 0)
		check(g, 0, 1)
		check(g, ^uint64(0), ^uint64(0))
		if z0, z1 := g.mul(1<<63, 0); z0 != g.h0 || z1 != g.h1 {
			t.Fatalf("1·H = %016x%016x, want H", z0, z1)
		}
		if z0, z1 := g.mul(0, 0); z0 != 0 || z1 != 0 {
			t.Fatalf("0·H = %016x%016x, want 0", z0, z1)
		}
		for i := 0; i < 50; i++ {
			check(g, rng.Uint64(), rng.Uint64())
		}
	}
}

// TestGHASHHWClmulMatchesShiftReference: the carry-less multiply
// instruction's GHASH agrees with mulH on the same subkeys and blocks as
// the table test above.
func TestGHASHHWClmulMatchesShiftReference(t *testing.T) {
	if !gfbig.HasCLMUL() {
		t.Skip("no carry-less multiply instruction on this host")
	}
	rng := rand.New(rand.NewSource(3))
	hs := [][2]uint64{{1 << 63, 0}, {0, 1}, {1 << 63, 1}, {^uint64(0), ^uint64(0)}}
	for trial := 0; trial < 20; trial++ {
		hs = append(hs, [2]uint64{rng.Uint64(), rng.Uint64()})
	}
	for _, h := range hs {
		g := withSubkey(h[0], h[1])
		xs := [][2]uint64{{0, 0}, {1 << 63, 0}, {0, 1}, {^uint64(0), ^uint64(0)}}
		for i := 0; i < 50; i++ {
			xs = append(xs, [2]uint64{rng.Uint64(), rng.Uint64()})
		}
		for _, x := range xs {
			z0, z1 := gfbig.GHASHMul(x[0], x[1], h[0], h[1])
			w0, w1 := g.mulH(x[0], x[1])
			if z0 != w0 || z1 != w1 {
				t.Fatalf("H=%016x%016x x=%016x%016x: hwclmul %016x%016x != reference %016x%016x",
					h[0], h[1], x[0], x[1], z0, z1, w0, w1)
			}
		}
	}
}

// TestGHASHStrategyRule: NewGCM runs hwclmul where the host has the
// instruction and the table under the scalar kernel force; both seal
// identically.
func TestGHASHStrategyRule(t *testing.T) {
	defer gf.ForceScalarKernels(gf.ScalarKernelsForced())
	c, _ := NewCipher([]byte("0123456789abcdef"))
	want := ghashTable
	if gfbig.HasCLMUL() {
		want = ghashHWClmul
	}
	nonce := make([]byte, 12)
	pt := make([]byte, 100)
	var sealed [][]byte
	for _, tc := range []struct {
		scalar bool
		want   string
	}{
		{false, want},
		{true, ghashTable},
	} {
		gf.ForceScalarKernels(tc.scalar)
		g := c.NewGCM()
		if got := g.GHASHStrategy(); got != tc.want {
			t.Errorf("scalar force %v: GHASHStrategy() = %q, want %q", tc.scalar, got, tc.want)
		}
		out, err := g.Seal(nonce, pt, []byte("aad"))
		if err != nil {
			t.Fatal(err)
		}
		sealed = append(sealed, out)
	}
	for i := 1; i < len(sealed); i++ {
		if !bytes.Equal(sealed[i], sealed[0]) {
			t.Fatalf("seal %d differs from seal 0", i)
		}
	}
	if got := GHASHStrategies(); got[0] != ghashTable || (len(got) == 2) != gfbig.HasCLMUL() {
		t.Errorf("GHASHStrategies() = %v", got)
	}
}

func TestVerifyGHASH(t *testing.T) {
	if err := VerifyGHASH(64, 1); err != nil {
		t.Fatal(err)
	}
}

// withSubkey returns a GCM (multiply only, no cipher) whose GHASH
// subkey is (h0, h1), so the table construction sees crafted values.
func withSubkey(h0, h1 uint64) *GCM {
	g := &GCM{h0: h0, h1: h1}
	g.buildTable()
	return g
}

// TestSealOpenToInPlace: SealTo/OpenTo append after the crypto/cipher
// convention — in place through plaintext[:0] / sealed[:0], and into a
// prefix-carrying dst — and agree with Seal/Open, which leave their
// inputs untouched.
func TestSealOpenToInPlace(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	c, _ := NewCipher([]byte("0123456789abcdef"))
	g := c.NewGCM()
	nonce := make([]byte, 12)
	aad := []byte("hdr")
	for _, n := range []int{0, 1, 15, 16, 17, 100, 3824} {
		pt := make([]byte, n)
		rng.Read(pt)
		ptCopy := append([]byte(nil), pt...)
		want, err := g.Seal(nonce, pt, aad)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(pt, ptCopy) {
			t.Fatalf("n=%d: Seal modified its plaintext", n)
		}
		wantCopy := append([]byte(nil), want...)
		back, err := g.Open(nonce, want, aad)
		if err != nil || !bytes.Equal(back, pt) {
			t.Fatalf("n=%d: Open round trip failed: %v", n, err)
		}
		if !bytes.Equal(want, wantCopy) {
			t.Fatalf("n=%d: Open modified its input", n)
		}

		// In place: the buffer has room for the tag.
		buf := make([]byte, n, n+gcmTagSize)
		copy(buf, pt)
		sealed, err := g.SealTo(buf[:0], nonce, buf, aad)
		if err != nil || !bytes.Equal(sealed, want) {
			t.Fatalf("n=%d: in-place SealTo differs from Seal: %v", n, err)
		}
		if &sealed[0] != &buf[:1][0] {
			t.Fatalf("n=%d: in-place SealTo moved to a new array", n)
		}
		opened, err := g.OpenTo(sealed[:0], nonce, sealed, aad)
		if err != nil || !bytes.Equal(opened, pt) {
			t.Fatalf("n=%d: in-place OpenTo failed: %v", n, err)
		}

		// Appending after a prefix.
		prefix := []byte("prefix")
		got, err := g.SealTo(append([]byte(nil), prefix...), nonce, pt, aad)
		if err != nil || !bytes.Equal(got, append(append([]byte(nil), prefix...), want...)) {
			t.Fatalf("n=%d: SealTo after prefix: %v", n, err)
		}
		got, err = g.OpenTo(append([]byte(nil), prefix...), nonce, want, aad)
		if err != nil || !bytes.Equal(got, append(append([]byte(nil), prefix...), pt...)) {
			t.Fatalf("n=%d: OpenTo after prefix: %v", n, err)
		}
	}
}

// TestOpenToZeroAlloc: the serving path — decrypt in place — and an
// in-place seal with room for the tag allocate nothing.
func TestOpenToZeroAlloc(t *testing.T) {
	c, _ := NewCipher([]byte("0123456789abcdef"))
	g := c.NewGCM()
	nonce := make([]byte, 12)
	pt := make([]byte, 3824)
	sealed, err := g.Seal(nonce, pt, nil)
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, len(sealed))
	if allocs := testing.AllocsPerRun(20, func() {
		copy(buf, sealed)
		if _, err := g.OpenTo(buf[:0], nonce, buf, nil); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Errorf("in-place OpenTo: %v allocs/op, want 0", allocs)
	}
	if allocs := testing.AllocsPerRun(20, func() {
		if _, err := g.SealTo(buf[:0], nonce, buf[:len(pt)], nil); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Errorf("in-place SealTo: %v allocs/op, want 0", allocs)
	}
}

func BenchmarkGHASHTable(b *testing.B) {
	c, _ := NewCipher(make([]byte, 16))
	g := c.NewGCM()
	x0, x1 := uint64(0x0123456789abcdef), uint64(0xfedcba9876543210)
	for i := 0; i < b.N; i++ {
		x0, x1 = g.mul(x0, x1)
	}
}

func BenchmarkGHASHHWClmul(b *testing.B) {
	if !gfbig.HasCLMUL() {
		b.Skip("no carry-less multiply instruction on this host")
	}
	c, _ := NewCipher(make([]byte, 16))
	g := c.NewGCM()
	x0, x1 := uint64(0x0123456789abcdef), uint64(0xfedcba9876543210)
	for i := 0; i < b.N; i++ {
		x0, x1 = gfbig.GHASHMul(x0, x1, g.h0, g.h1)
	}
}

func BenchmarkGHASHShift(b *testing.B) {
	c, _ := NewCipher(make([]byte, 16))
	g := c.NewGCM()
	x0, x1 := uint64(0x0123456789abcdef), uint64(0xfedcba9876543210)
	for i := 0; i < b.N; i++ {
		x0, x1 = g.mulH(x0, x1)
	}
}

// withStrategy returns a cipher for key on the named block strategy.
func withStrategy(t testing.TB, key []byte, strategy string) *Cipher {
	t.Helper()
	c, err := NewCipher(key)
	if err != nil {
		t.Fatal(err)
	}
	c.ni = strategy == blockAESNI
	return c
}

// TestBlockStrategyRule: NewCipher runs the AES instructions where the
// host has them and the word rounds under the scalar kernel force; both
// encrypt and seal identically.
func TestBlockStrategyRule(t *testing.T) {
	defer gf.ForceScalarKernels(gf.ScalarKernelsForced())
	want := blockWord
	if hasAESNI {
		want = blockAESNI
	}
	key := []byte("0123456789abcdef")
	nonce := make([]byte, 12)
	pt := make([]byte, 300)
	var sealed [][]byte
	for _, tc := range []struct {
		scalar bool
		want   string
	}{
		{false, want},
		{true, blockWord},
	} {
		gf.ForceScalarKernels(tc.scalar)
		c, _ := NewCipher(key)
		if got := c.BlockStrategy(); got != tc.want {
			t.Errorf("scalar force %v: BlockStrategy() = %q, want %q", tc.scalar, got, tc.want)
		}
		out, err := c.NewGCM().Seal(nonce, pt, []byte("aad"))
		if err != nil {
			t.Fatal(err)
		}
		sealed = append(sealed, out)
	}
	for i := 1; i < len(sealed); i++ {
		if !bytes.Equal(sealed[i], sealed[0]) {
			t.Fatalf("seal %d differs from seal 0", i)
		}
	}
	if got := BlockStrategies(); got[0] != blockWord || (len(got) == 2) != hasAESNI {
		t.Errorf("BlockStrategies() = %v", got)
	}
}

func TestVerifyBlock(t *testing.T) {
	if err := VerifyBlock(16, 1); err != nil {
		t.Fatal(err)
	}
}

// TestGCTRCounterWrap: the counter is GCM's inc32 — only the last four
// bytes count, and they wrap to zero without carrying into the nonce.
// Starting from a J0 whose counter is 0xFFFFFFFE, each strategy's
// keystream must equal E_K of the blocks built by hand, over lengths
// that cross the eight-block stride and end in partial blocks.
func TestGCTRCounterWrap(t *testing.T) {
	key := []byte("0123456789abcdef")
	var j0 [BlockSize]byte
	copy(j0[:], "wrap-nonce-!")
	j0[12], j0[13], j0[14], j0[15] = 0xff, 0xff, 0xff, 0xfe
	ref, _ := stdaes.NewCipher(key)
	for _, n := range []int{16, 17, 40, 128, 137, 160, 300} {
		want := make([]byte, n)
		blk := j0
		for off, ctr := 0, uint32(0xffffffff); off < n; off, ctr = off+BlockSize, ctr+1 {
			blk[12], blk[13], blk[14], blk[15] = byte(ctr>>24), byte(ctr>>16), byte(ctr>>8), byte(ctr)
			var ks [BlockSize]byte
			ref.Encrypt(ks[:], blk[:])
			copy(want[off:], ks[:])
		}
		for _, strategy := range BlockStrategies() {
			g := withStrategy(t, key, strategy).NewGCM()
			got := make([]byte, n)
			g.gctr(got, make([]byte, n), &j0)
			if !bytes.Equal(got, want) {
				t.Errorf("%s: keystream over %d bytes from counter 0xfffffffe differs from inc32", strategy, n)
			}
		}
	}
}

// BenchmarkGCMOpen3824 opens the uplink's 3824-byte payload in place,
// per block strategy. GHASH runs on the host's rule either way.
func BenchmarkGCMOpen3824(b *testing.B) {
	for _, strategy := range BlockStrategies() {
		b.Run(strategy, func(b *testing.B) {
			g := withStrategy(b, make([]byte, 16), strategy).NewGCM()
			nonce := make([]byte, 12)
			sealed, err := g.Seal(nonce, make([]byte, 3824), nil)
			if err != nil {
				b.Fatal(err)
			}
			buf := make([]byte, len(sealed))
			b.SetBytes(3824)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				copy(buf, sealed)
				if _, err := g.OpenTo(buf[:0], nonce, buf, nil); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
