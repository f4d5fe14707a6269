package server

import (
	"bytes"
	"crypto/rand"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"strings"
	"testing"

	"repro/internal/aes"
	"repro/internal/ecc"
	"repro/internal/gfbig"
)

// eccServer starts a server with the ECC service on (default curve) and
// returns it with a connected client.
func eccServer(t *testing.T, cfg Config) (*Server, *Client) {
	t.Helper()
	s, addr := startServer(t, cfg)
	return s, dialT(t, addr)
}

// serverPublic fetches the server's public point from the discovery
// section, the way a real client learns it.
func serverPublic(t *testing.T, c *Client) (*ECCInfo, []byte) {
	t.Helper()
	snap, err := c.Stats()
	if err != nil {
		t.Fatal(err)
	}
	info := snap.Config.ECC
	if info == nil {
		t.Fatal("stats: no ecc section")
	}
	pub, err := hex.DecodeString(info.PublicKey)
	if err != nil || len(pub) != info.PointBytes {
		t.Fatalf("stats: bad public key %q: %v", info.PublicKey, err)
	}
	return info, pub
}

// TestECCRoundTrip drives all four ECC ops end to end through a live
// server: derive cross-checked against the client-side shared secret,
// sign checked by the client-side verifier and the verify op, and the
// handshake opened with the client's private key.
func TestECCRoundTrip(t *testing.T) {
	s, c := eccServer(t, Config{Workers: 2})
	info, pub := serverPublic(t, c)
	if info.Curve != "NIST K-233" {
		t.Fatalf("default curve %q, want NIST K-233", info.Curve)
	}

	curve, err := ecc.CurveByName(info.Curve)
	if err != nil {
		t.Fatal(err)
	}
	cli, err := ecc.GenerateKey(curve, rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	cliPub := curve.MarshalUncompressed(cli.Pub)

	// ecdh-derive: the server's d * cliPub must equal the client's
	// d_cli * serverPub.
	shared, err := c.ECDHDerive(cliPub)
	if err != nil {
		t.Fatal(err)
	}
	srvPt, err := curve.UnmarshalUncompressed(pub)
	if err != nil {
		t.Fatal(err)
	}
	want, err := cli.SharedSecret(srvPt)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(shared, want) {
		t.Fatalf("derive mismatch:\n got %x\nwant %x", shared, want)
	}

	// ecdsa-sign: deterministic, verifies against the advertised public
	// point both locally and via the verify op.
	digest := sha256.Sum256([]byte("gfp ecc round trip"))
	sig, err := c.ECDSASign(digest[:])
	if err != nil {
		t.Fatal(err)
	}
	if len(sig) != info.SignatureBytes {
		t.Fatalf("signature %dB, want %d", len(sig), info.SignatureBytes)
	}
	again, err := c.ECDSASign(digest[:])
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(sig, again) {
		t.Fatal("ecdsa-sign is not deterministic")
	}
	eng, err := ecc.NewEngine(curve, cli.D)
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.VerifyWire(pub, sig, digest[:]); err != nil {
		t.Fatalf("local verify of server signature: %v", err)
	}
	if err := c.ECDSAVerify(pub, sig, digest[:]); err != nil {
		t.Fatalf("verify op: %v", err)
	}
	// Tampered signature must come back codec-failed, not OK.
	bad := append([]byte(nil), sig...)
	bad[3] ^= 1
	err = c.ECDSAVerify(pub, bad, digest[:])
	var se *StatusError
	if !errors.As(err, &se) || se.Status != StatusCodecFailed {
		t.Fatalf("tampered verify: got %v, want codec-failed", err)
	}

	// secure-session: open the handshake with the client's key and
	// recover the challenge.
	challenge := []byte("nonce-challenge-0123456789")
	resp, err := c.SecureSession(cliPub, challenge)
	if err != nil {
		t.Fatal(err)
	}
	key, got, err := ecc.OpenSessionResponse(cli, cliPub, resp)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, challenge) {
		t.Fatalf("session challenge mismatch: %q", got)
	}
	if len(key) != 16 {
		t.Fatalf("session key %dB, want 16", len(key))
	}

	// The op counters saw everything (2 signs, 1 verify OK, 1 failure).
	if n := s.ecc.signs.Load(); n != 2 {
		t.Fatalf("signs counter = %d, want 2", n)
	}
	if n := s.ecc.failures.Load(); n != 1 {
		t.Fatalf("failures counter = %d, want 1", n)
	}
}

// TestECCFleetDeterminism: two servers sharing Key (and curve) derive
// the same scalar, hence identical public points and signatures — the
// property ecdsa-sign's idempotency classification rests on.
func TestECCFleetDeterminism(t *testing.T) {
	key := []byte("fleet-shared-key")
	_, c1 := eccServer(t, Config{Key: append([]byte(nil), key...)})
	_, c2 := eccServer(t, Config{Key: append([]byte(nil), key...)})
	_, pub1 := serverPublic(t, c1)
	_, pub2 := serverPublic(t, c2)
	if !bytes.Equal(pub1, pub2) {
		t.Fatal("same key, different public points")
	}
	digest := sha256.Sum256([]byte("fleet"))
	s1, err := c1.ECDSASign(digest[:])
	if err != nil {
		t.Fatal(err)
	}
	s2, err := c2.ECDSASign(digest[:])
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(s1, s2) {
		t.Fatal("same key, different signatures")
	}

	// A separate ECCKey decouples the signing identity from the GCM key.
	_, c3 := eccServer(t, Config{Key: append([]byte(nil), key...), ECCKey: []byte("rotated")})
	_, pub3 := serverPublic(t, c3)
	if bytes.Equal(pub1, pub3) {
		t.Fatal("distinct ECCKey produced the same public point")
	}
}

// TestECCValidation: every malformed request is rejected at the framing
// gate with bad-request, before touching a worker.
func TestECCValidation(t *testing.T) {
	_, c := eccServer(t, Config{})
	info, pub := serverPublic(t, c)

	wantStatus := func(err error, want Status, what string) {
		t.Helper()
		var se *StatusError
		if !errors.As(err, &se) || se.Status != want {
			t.Fatalf("%s: got %v, want %v", what, err, want)
		}
	}

	_, err := c.ECDHDerive(pub[:10])
	wantStatus(err, StatusBadRequest, "short derive point")
	_, err = c.ECDSASign(nil)
	wantStatus(err, StatusBadRequest, "empty digest")
	_, err = c.ECDSASign(make([]byte, ecc.MaxDigestBytes+1))
	wantStatus(err, StatusBadRequest, "oversized digest")
	err = c.ECDSAVerify(pub, make([]byte, info.SignatureBytes), nil)
	wantStatus(err, StatusBadRequest, "verify without digest")
	_, err = c.SecureSession(pub, make([]byte, MaxSessionChallenge+1))
	wantStatus(err, StatusBadRequest, "oversized challenge")

	// Off-curve point: passes the length gate, fails semantically.
	offCurve := append([]byte(nil), pub...)
	offCurve[len(offCurve)-1] ^= 1
	_, err = c.ECDHDerive(offCurve)
	wantStatus(err, StatusCodecFailed, "off-curve derive")
}

// TestECCDisabled: curve=off servers reject the ECC ops as unsupported
// and advertise no discovery section.
func TestECCDisabled(t *testing.T) {
	_, c := eccServer(t, Config{Curve: CurveOff})
	snap, err := c.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if snap.Config.ECC != nil {
		t.Fatal("curve=off still advertises an ecc section")
	}
	_, err = c.ECDSASign([]byte{1})
	var se *StatusError
	if !errors.As(err, &se) || se.Status != StatusUnsupported {
		t.Fatalf("sign with ecc off: got %v, want unsupported", err)
	}
}

// TestECCIdempotencyTaxonomy pins the retry classification: the pure
// and deterministic ops are idempotent, the handshake never is.
func TestECCIdempotencyTaxonomy(t *testing.T) {
	want := map[Op]bool{
		OpRSEncode: true, OpRSDecode: true, OpStats: true,
		OpSeal: false, OpOpen: false,
		OpECDHDerive: true, OpECDSASign: true, OpECDSAVerify: true,
		OpSecureSession: false,
	}
	for op, idem := range want {
		if got := op.Idempotent(); got != idem {
			t.Errorf("%v.Idempotent() = %v, want %v", op, got, idem)
		}
	}
}

// TestECCSelfTestCoversGfbig: the startup self-test reports the big
// binary field and the AES block strategies alongside the byte fields,
// and health gates on them; /statsz names the multiplies and the block
// encrypt that serve.
func TestECCSelfTestCoversGfbig(t *testing.T) {
	s, _ := eccServer(t, Config{})
	res := s.SelfTest()
	if !res.OK {
		t.Fatalf("selftest failed: %s", res.Error)
	}
	found, foundAES := false, false
	for i, f := range res.Fields {
		switch f {
		case "GF(2^233) (gfbig)":
			found = true
			// The tiers are the strategies actually verified.
			if want := strings.Join(gfbig.F233().AvailableStrategies(), ","); res.Tiers[i] != want {
				t.Errorf("gfbig tiers %q, want %q", res.Tiers[i], want)
			}
		case "GF(2^128) (GHASH)":
			if want := strings.Join(aes.GHASHStrategies(), ","); res.Tiers[i] != want {
				t.Errorf("GHASH tiers %q, want %q", res.Tiers[i], want)
			}
		case "AES block":
			foundAES = true
			if want := strings.Join(aes.BlockStrategies(), ","); res.Tiers[i] != want {
				t.Errorf("AES block tiers %q, want %q", res.Tiers[i], want)
			}
		}
	}
	if !found || !foundAES {
		t.Fatalf("selftest fields %v lack the gfbig or the AES block entry", res.Fields)
	}
	if len(res.Tiers) != len(res.Fields) {
		t.Fatalf("selftest lists %d tiers for %d fields", len(res.Tiers), len(res.Fields))
	}
	snap := s.Snapshot()
	if got, want := snap.Config.ECC.MulStrategy, gfbig.F233().MulStrategy().String(); got != want {
		t.Errorf("stats mul_strategy %q, want %q", got, want)
	}
	wantGHASH := "table"
	if gfbig.UseCLMUL() {
		wantGHASH = "hwclmul"
	}
	if got := snap.Config.GHASH; got != wantGHASH {
		t.Errorf("stats ghash %q, want %q", got, wantGHASH)
	}
	c, _ := aes.NewCipher(make([]byte, 16))
	if got, want := snap.Config.AES, c.BlockStrategy(); got != want {
		t.Errorf("stats aes %q, want %q", got, want)
	}
	if err := s.Healthy(); err != nil {
		t.Fatalf("Healthy: %v", err)
	}
}

// TestECCBadCurve: an unknown curve name fails construction.
func TestECCBadCurve(t *testing.T) {
	if _, err := New(Config{Curve: "P-256"}); err == nil {
		t.Fatal("New accepted curve P-256")
	}
}
