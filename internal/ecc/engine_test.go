package ecc

import (
	"bytes"
	"crypto/sha256"
	"math/big"
	"math/rand"
	"testing"
)

func testEngine(t testing.TB, c *Curve) *Engine {
	t.Helper()
	rng := rand.New(rand.NewSource(42))
	d, err := c.RandomScalar(rng)
	if err != nil {
		t.Fatal(err)
	}
	e, err := NewEngine(c, d)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// TestEngineScalarRejection: NewEngine rejects zero and overflowing
// private scalars instead of silently reducing them.
func TestEngineScalarRejection(t *testing.T) {
	c := K233()
	for _, d := range []*big.Int{
		nil,
		big.NewInt(0),
		new(big.Int).Neg(big.NewInt(5)),
		new(big.Int).Set(c.Order),
		new(big.Int).Add(c.Order, big.NewInt(1)),
		new(big.Int).Lsh(big.NewInt(1), 400),
	} {
		if _, err := NewEngine(c, d); err == nil {
			t.Errorf("NewEngine accepted out-of-range scalar %v", d)
		}
	}
	if _, err := NewEngine(c, big.NewInt(1)); err != nil {
		t.Errorf("NewEngine rejected d=1: %v", err)
	}
	dMax := new(big.Int).Sub(c.Order, big.NewInt(1))
	if _, err := NewEngine(c, dMax); err != nil {
		t.Errorf("NewEngine rejected d=n-1: %v", err)
	}
}

// TestEngineLadderMatchesScalarMult: the scratch x-only ladder against
// the projective double-and-add reference, on random scalars and
// points, for every curve.
func TestEngineLadderMatchesScalarMult(t *testing.T) {
	for _, c := range Curves() {
		t.Run(c.Name, func(t *testing.T) {
			e := testEngine(t, c)
			rng := rand.New(rand.NewSource(int64(c.F.M())))
			k := e.sf.newElem()
			for iter := 0; iter < 8; iter++ {
				kb, err := c.RandomScalar(rng)
				if err != nil {
					t.Fatal(err)
				}
				// Random base point: kb2 * G.
				kb2, _ := c.RandomScalar(rng)
				p := c.ScalarBaseMult(kb2)
				e.sf.setBytes(k, kb.Bytes())
				ok := e.ladderX(k, p.X)
				// ladderX only sees x, so compare against the reference
				// ladder which shares that contract.
				want := c.ScalarMult(kb, p)
				if want.Inf != !ok {
					t.Fatalf("infinity disagreement: ref inf=%v ladder ok=%v", want.Inf, ok)
				}
				if ok && !c.F.Equal(e.xout, want.X) {
					t.Fatalf("x(kP) mismatch:\n  got  %s\n  want %s",
						c.F.Hex(e.xout), c.F.Hex(want.X))
				}
			}
			// k = 1 and k = order-1 edges.
			g := c.Generator()
			e.sf.setBytes(k, []byte{1})
			if !e.ladderX(k, g.X) || !c.F.Equal(e.xout, g.X) {
				t.Fatalf("ladder k=1 mismatch")
			}
			nm1 := new(big.Int).Sub(c.Order, big.NewInt(1))
			e.sf.setBytes(k, nm1.Bytes())
			if !e.ladderX(k, g.X) || !c.F.Equal(e.xout, g.X) {
				t.Fatalf("ladder k=n-1 should land on -G (same x)")
			}
		})
	}
}

// TestEngineDeriveMatchesSharedSecret: the wire-format Derive against
// the reference ECDH, plus the symmetry d1*Q2 == d2*Q1.
func TestEngineDeriveMatchesSharedSecret(t *testing.T) {
	for _, c := range Curves() {
		t.Run(c.Name, func(t *testing.T) {
			e := testEngine(t, c)
			rng := rand.New(rand.NewSource(99))
			peer, err := GenerateKey(c, rng)
			if err != nil {
				t.Fatal(err)
			}
			peerBytes := c.MarshalUncompressed(peer.Pub)
			got, err := e.Derive(nil, peerBytes)
			if err != nil {
				t.Fatal(err)
			}
			// Reference: the engine's key as a PrivateKey.
			d := new(big.Int).SetBytes(e.dBytes)
			priv, err := NewPrivateKey(c, d)
			if err != nil {
				t.Fatal(err)
			}
			want, err := priv.SharedSecret(peer.Pub)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("Derive mismatch:\n  got  %x\n  want %x", got, want)
			}
			// Symmetry: peer derives the same secret from our public.
			sym, err := peer.SharedSecret(priv.Pub)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, sym) {
				t.Fatalf("ECDH asymmetry")
			}
		})
	}
}

// TestEngineDeriveRejects covers the public-point validation matrix.
func TestEngineDeriveRejects(t *testing.T) {
	c := K233()
	e := testEngine(t, c)
	rng := rand.New(rand.NewSource(5))
	peer, _ := GenerateKey(c, rng)
	good := c.MarshalUncompressed(peer.Pub)

	cases := map[string][]byte{
		"empty":           {},
		"identity":        {0x00},
		"compressed-tag":  append([]byte{0x02}, good[1:]...),
		"truncated":       good[:len(good)-1],
		"trailing":        append(append([]byte{}, good...), 0x00),
		"off-curve":       flipBit(good, len(good)-1),
		"x-overflow":      overflowX(c, good),
		"wrong-curve-283": c283Point(t),
	}
	for name, b := range cases {
		if _, err := e.Derive(nil, b); err == nil {
			t.Errorf("%s: Derive accepted invalid point", name)
		}
	}
	// B-233 points live on the same field but a different curve: the
	// on-curve check must reject them (wrong-curve public point).
	b233 := B233()
	bpeer, _ := GenerateKey(b233, rng)
	if _, err := e.Derive(nil, b233.MarshalUncompressed(bpeer.Pub)); err == nil {
		t.Errorf("Derive accepted a B-233 point on the K-233 engine")
	}
}

func flipBit(b []byte, i int) []byte {
	out := append([]byte{}, b...)
	out[i] ^= 1
	return out
}

func overflowX(c *Curve, good []byte) []byte {
	out := append([]byte{}, good...)
	out[1] |= 0xFF // x gains bits >= m: SetBytesInto must reject
	return out
}

func c283Point(t *testing.T) []byte {
	t.Helper()
	c := K283()
	k, _ := c.RandomScalar(rand.New(rand.NewSource(1)))
	return c.MarshalUncompressed(c.ScalarBaseMult(k))
}

// TestEngineSignVerify: deterministic sign against the independent
// big.Int verifier, across curves and digest lengths (SEC 1
// truncation both shorter and longer than the order).
func TestEngineSignVerify(t *testing.T) {
	for _, c := range Curves() {
		t.Run(c.Name, func(t *testing.T) {
			e := testEngine(t, c)
			pub := e.Public()
			for _, dlen := range []int{1, 16, 20, 32, 48, 64} {
				digest := make([]byte, dlen)
				rand.New(rand.NewSource(int64(dlen))).Read(digest)
				sig, err := e.SignAppend(nil, digest)
				if err != nil {
					t.Fatalf("sign(%d bytes): %v", dlen, err)
				}
				if len(sig) != 2*e.ob {
					t.Fatalf("signature length %d, want %d", len(sig), 2*e.ob)
				}
				r := new(big.Int).SetBytes(sig[:e.ob])
				s := new(big.Int).SetBytes(sig[e.ob:])
				if !VerifyDigest(c, pub, digest, &Signature{R: r, S: s}) {
					t.Fatalf("reference verifier rejected deterministic signature (digest %d bytes)", dlen)
				}
				if err := e.VerifyWire(e.PublicBytes(), sig, digest); err != nil {
					t.Fatalf("VerifyWire rejected own signature: %v", err)
				}
				// Determinism: same digest, same signature — including
				// from a clone (a different pipeline worker).
				sig2, err := e.Clone().SignAppend(nil, digest)
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(sig, sig2) {
					t.Fatalf("deterministic signing diverged between clones")
				}
			}
			// Digest rejection.
			if _, err := e.SignAppend(nil, nil); err == nil {
				t.Fatalf("accepted empty digest")
			}
			if _, err := e.SignAppend(nil, make([]byte, 65)); err == nil {
				t.Fatalf("accepted oversized digest")
			}
		})
	}
}

// TestEngineSignLowS: the signer always emits the canonical low-s
// representative, and the verifier (correctly, per spec) accepts both
// (r, s) and (r, n-s) — the malleability pair.
func TestEngineSignLowS(t *testing.T) {
	c := K233()
	e := testEngine(t, c)
	half := new(big.Int).Rsh(c.Order, 1)
	for i := 0; i < 16; i++ {
		digest := sha256.Sum256([]byte{byte(i)})
		sig, err := e.SignAppend(nil, digest[:])
		if err != nil {
			t.Fatal(err)
		}
		s := new(big.Int).SetBytes(sig[e.ob:])
		if s.Cmp(half) > 0 {
			t.Fatalf("signer emitted high-s (iteration %d)", i)
		}
		// The mirrored signature also verifies: malleability is a
		// property of ECDSA itself, which is why the signer pins the
		// low form rather than the verifier rejecting the high one.
		r := new(big.Int).SetBytes(sig[:e.ob])
		sm := new(big.Int).Sub(c.Order, s)
		if !VerifyDigest(c, e.Public(), digest[:], &Signature{R: r, S: sm}) {
			t.Fatalf("mirrored signature (r, n-s) did not verify")
		}
		// But a perturbed s must not.
		bad := new(big.Int).Add(s, big.NewInt(1))
		if VerifyDigest(c, e.Public(), digest[:], &Signature{R: r, S: bad}) {
			t.Fatalf("perturbed signature verified")
		}
	}
}

// TestEngineSignKAT pins known-answer signatures so any change to the
// nonce derivation, truncation, scalar arithmetic or ladder shows up
// as a diff — the signatures are deterministic by construction.
func TestEngineSignKAT(t *testing.T) {
	for _, kat := range signKATs {
		c, err := CurveByName(kat.curve)
		if err != nil {
			t.Fatal(err)
		}
		d, _ := new(big.Int).SetString(kat.d, 16)
		e, err := NewEngine(c, d)
		if err != nil {
			t.Fatal(err)
		}
		digest := sha256.Sum256([]byte(kat.msg))
		sig, err := e.SignAppend(nil, digest[:])
		if err != nil {
			t.Fatal(err)
		}
		got := hexStr(sig)
		if got != kat.sig {
			t.Errorf("%s/%q: signature\n  got  %s\n  want %s", kat.curve, kat.msg, got, kat.sig)
		}
		if err := e.VerifyWire(e.PublicBytes(), sig, digest[:]); err != nil {
			t.Errorf("%s/%q: KAT signature does not verify: %v", kat.curve, kat.msg, err)
		}
	}
}

func hexStr(b []byte) string {
	const digits = "0123456789abcdef"
	out := make([]byte, 2*len(b))
	for i, v := range b {
		out[2*i] = digits[v>>4]
		out[2*i+1] = digits[v&0xF]
	}
	return string(out)
}

// TestEngineZeroAlloc enforces the acceptance criterion: steady-state
// ecdsa-sign and ecdh-derive are 0 allocs/request.
func TestEngineZeroAlloc(t *testing.T) {
	c := K233()
	e := testEngine(t, c)
	rng := rand.New(rand.NewSource(11))
	peer, _ := GenerateKey(c, rng)
	peerBytes := c.MarshalUncompressed(peer.Pub)
	digest := sha256.Sum256([]byte("steady state"))
	out := make([]byte, 0, 256)
	// Warm up outside the measured window.
	if _, err := e.Derive(out, peerBytes); err != nil {
		t.Fatal(err)
	}
	if _, err := e.SignAppend(out, digest[:]); err != nil {
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(10, func() {
		if _, err := e.Derive(out[:0], peerBytes); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("Derive: %v allocs/request, want 0", n)
	}
	if n := testing.AllocsPerRun(10, func() {
		if _, err := e.SignAppend(out[:0], digest[:]); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("SignAppend: %v allocs/request, want 0", n)
	}
}

// TestSecureSessionRoundTrip: server handshake, client open, tamper
// rejection.
func TestSecureSessionRoundTrip(t *testing.T) {
	c := K233()
	e := testEngine(t, c)
	rng := rand.New(rand.NewSource(31))
	client, err := GenerateKey(c, rng)
	if err != nil {
		t.Fatal(err)
	}
	clientPub := c.MarshalUncompressed(client.Pub)
	challenge := []byte("prove you derived the same key")
	resp, err := e.SecureSession(rng, nil, clientPub, challenge)
	if err != nil {
		t.Fatal(err)
	}
	if len(resp) != e.SessionResponseBytes(len(challenge)) {
		t.Fatalf("response length %d, want %d", len(resp), e.SessionResponseBytes(len(challenge)))
	}
	key, got, err := OpenSessionResponse(client, clientPub, resp)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, challenge) {
		t.Fatalf("challenge mismatch: %q", got)
	}
	if len(key) != 16 {
		t.Fatalf("key length %d", len(key))
	}
	// Tampering anywhere in the response must fail the GCM open.
	for _, i := range []int{0, 1, len(resp) - 1, e.PointBytes() + 2} {
		bad := flipBit(resp, i)
		if _, _, err := OpenSessionResponse(client, clientPub, bad); err == nil {
			t.Errorf("tampered response (byte %d) opened", i)
		}
	}
	// A response bound to a different client point must not open.
	other, _ := GenerateKey(c, rng)
	if _, _, err := OpenSessionResponse(other, c.MarshalUncompressed(other.Pub), resp); err == nil {
		t.Errorf("response opened under a different client key")
	}
	// Two handshakes must use distinct ephemeral keys.
	resp2, err := e.SecureSession(rng, nil, clientPub, challenge)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(resp[:e.PointBytes()], resp2[:e.PointBytes()]) {
		t.Fatalf("ephemeral key reused across handshakes")
	}
	// Invalid client point.
	if _, err := e.SecureSession(rng, nil, flipBit(clientPub, len(clientPub)-1), challenge); err == nil {
		t.Fatalf("handshake accepted off-curve client point")
	}
	// Empty challenge is legal.
	if _, err := e.SecureSession(rng, nil, clientPub, nil); err != nil {
		t.Fatalf("empty challenge: %v", err)
	}
}

func TestCurveByName(t *testing.T) {
	for _, tc := range []struct{ in, want string }{
		{"K-233", "NIST K-233"},
		{"k233", "NIST K-233"},
		{"NIST B-163", "NIST B-163"},
		{"sect233k1", "NIST K-233"},
		{"K_283", "NIST K-283"},
	} {
		c, err := CurveByName(tc.in)
		if err != nil {
			t.Fatalf("CurveByName(%q): %v", tc.in, err)
		}
		if c.Name != tc.want {
			t.Fatalf("CurveByName(%q) = %s, want %s", tc.in, c.Name, tc.want)
		}
	}
	if _, err := CurveByName("P-256"); err == nil {
		t.Fatalf("CurveByName accepted P-256")
	}
}

func BenchmarkECDHDerive(b *testing.B) {
	c := K233()
	e := testEngine(b, c)
	peer, _ := GenerateKey(c, rand.New(rand.NewSource(2)))
	peerBytes := c.MarshalUncompressed(peer.Pub)
	out := make([]byte, 0, 64)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e.Derive(out[:0], peerBytes); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkECDSASign(b *testing.B) {
	c := K233()
	e := testEngine(b, c)
	digest := sha256.Sum256([]byte("bench"))
	out := make([]byte, 0, 64)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e.SignAppend(out[:0], digest[:]); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkECDSAVerify(b *testing.B) {
	c := K233()
	e := testEngine(b, c)
	digest := sha256.Sum256([]byte("bench"))
	sig, err := e.SignAppend(nil, digest[:])
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := e.VerifyWire(e.PublicBytes(), sig, digest[:]); err != nil {
			b.Fatal(err)
		}
	}
}
