package ecc

// Engine is the server-side ECC hot path: one worker's pre-allocated
// state for ecdh-derive and ecdsa-sign requests. Every temporary the
// x-only Montgomery ladder, the fixed-width scalar arithmetic and the
// RFC 6979 nonce derivation need is owned by the engine, so a
// steady-state Derive or SignAppend performs zero heap allocations
// (enforced by TestEngineZeroAlloc). Engines are not safe for
// concurrent use; the pipeline gives each worker its own via Clone.
//
// Signing is deterministic (RFC 6979 HMAC-SHA256 nonces, low-s
// canonical form), which is what lets the GFP1 ecdsa-sign op be
// classified idempotent: a fleet of backends sharing the signing key
// produces bit-identical signatures, so a proxy retry after a
// transport failure cannot produce divergent answers.

import (
	"crypto/sha256"
	"errors"
	"math/big"

	"repro/internal/gfbig"
)

// Exported engine errors. The server maps ErrBadPoint/ErrBadDigest to
// StatusBadRequest-style rejections and the semantic failures to
// codec-failed responses.
var (
	ErrBadScalar       = errors.New("ecc: private scalar out of range [1, order-1]")
	ErrBadPoint        = errors.New("ecc: malformed or off-curve public point")
	ErrPointAtInfinity = errors.New("ecc: result is the point at infinity")
	ErrBadDigest       = errors.New("ecc: digest must be 1..64 bytes")
	ErrVerifyFailed    = errors.New("ecc: signature verification failed")
)

// maxDigestLen bounds digests on the wire: up to SHA-512 output.
const maxDigestLen = 64

// MaxDigestBytes is maxDigestLen for wire-facing callers (the server's
// request validation), so the bound cannot drift between the layers.
const MaxDigestBytes = maxDigestLen

// Engine holds one worker's ECC state. See the package-level docs.
type Engine struct {
	c  *Curve
	sf *scalarField
	fs *gfbig.Scratch

	d        []uint32 // private scalar, scalar words
	dBytes   []byte   // int2octets(d) for the RFC 6979 DRBG
	pub      Point
	pubBytes []byte // SEC 1 uncompressed encoding of the public point

	fb int // field element wire bytes: ceil(m/8)
	ob int // scalar wire bytes: ceil(orderBits/8)

	// bOne is set when the curve's b is 1 (the Koblitz curves), so a
	// ladder doubling skips its multiply by b. It is decided from the
	// public curve constant, not from secret data.
	bOne bool

	// Field temporaries: ladder registers, curve checks, parsed points.
	lx             gfbig.Elem // borrowed: the ladder's base x-coordinate
	x1, z1, x2, z2 gfbig.Elem
	t1, t2, t3     gfbig.Elem
	xout           gfbig.Elem
	px, py         gfbig.Elem

	// Scalar temporaries.
	ss                 *scalarScratch
	se, sr, ssig, sk   []uint32 // e, r, s, nonce
	skinv, stmp, stmp2 []uint32
	xwide              []uint32 // ladder x output widened for mod-n reduction

	// RFC 6979 HMAC-SHA256 DRBG state and buffers.
	hV, hK     [32]byte
	ipad, opad [64]byte
	obuf       [96]byte // opad || inner hash for the outer compression
	hbuf       []byte   // inner hash input: ipad || message
	tbuf       []byte   // accumulated T output
	h1o        []byte   // bits2octets(digest), ob bytes
}

// NewEngine builds an engine for the given curve and private scalar.
// Unlike NewPrivateKey it rejects (rather than reduces) out-of-range
// scalars: d must already be in [1, order-1].
func NewEngine(c *Curve, d *big.Int) (*Engine, error) {
	if d == nil || d.Sign() <= 0 || d.Cmp(c.Order) >= 0 {
		return nil, ErrBadScalar
	}
	e := &Engine{
		c:  c,
		sf: newScalarField(c.Order),
		fb: (c.F.M() + 7) / 8,
	}
	e.ob = e.sf.bytes
	e.d = e.sf.newElem()
	e.sf.setBytes(e.d, d.Bytes())
	e.dBytes = make([]byte, e.ob)
	e.sf.toBytes(e.dBytes, e.d)
	e.pub = c.ScalarBaseMult(d)
	e.pubBytes = c.MarshalUncompressed(e.pub)
	e.initScratch()
	return e, nil
}

// Clone returns an engine sharing the immutable key material with
// fresh scratch state — the per-worker fan-out.
func (e *Engine) Clone() *Engine {
	ne := &Engine{
		c: e.c, sf: e.sf,
		d: e.d, dBytes: e.dBytes, pub: e.pub, pubBytes: e.pubBytes,
		fb: e.fb, ob: e.ob,
	}
	ne.initScratch()
	return ne
}

func (e *Engine) initScratch() {
	f := e.c.F
	e.fs = f.NewScratch()
	e.bOne = f.Equal(e.c.B, f.One())
	for _, p := range []*gfbig.Elem{&e.x1, &e.z1, &e.x2, &e.z2, &e.t1, &e.t2, &e.t3, &e.xout, &e.px, &e.py} {
		*p = f.Zero()
	}
	e.ss = e.sf.newScratch()
	for _, p := range []*[]uint32{&e.se, &e.sr, &e.ssig, &e.sk, &e.skinv, &e.stmp, &e.stmp2} {
		*p = e.sf.newElem()
	}
	e.xwide = make([]uint32, f.Words())
	e.hbuf = make([]byte, 0, 64+2*(32+1+2*e.ob))
	e.tbuf = make([]byte, 0, ((e.sf.bits+255)/256)*32)
	e.h1o = make([]byte, e.ob)
}

// Curve returns the engine's curve.
func (e *Engine) Curve() *Curve { return e.c }

// PublicBytes returns the SEC 1 uncompressed encoding of the public
// point (shared, do not modify).
func (e *Engine) PublicBytes() []byte { return e.pubBytes }

// Public returns the public point.
func (e *Engine) Public() Point { return e.pub }

// FieldBytes returns the wire width of one field element.
func (e *Engine) FieldBytes() int { return e.fb }

// OrderBytes returns the wire width of one scalar (r or s).
func (e *Engine) OrderBytes() int { return e.ob }

// PointBytes returns the wire width of an uncompressed point.
func (e *Engine) PointBytes() int { return 1 + 2*e.fb }

// SignatureBytes returns the wire width of a signature (r || s).
func (e *Engine) SignatureBytes() int { return 2 * e.ob }

// parsePoint decodes an SEC 1 uncompressed point into (px, py) and
// validates it is on the curve. The identity (0x00) and compressed
// forms are rejected: the wire ops only accept full points.
func (e *Engine) parsePoint(b []byte) error {
	if len(b) != 1+2*e.fb || b[0] != 0x04 {
		return ErrBadPoint
	}
	f := e.c.F
	if f.SetBytesInto(e.px, b[1:1+e.fb]) != nil {
		return ErrBadPoint
	}
	if f.SetBytesInto(e.py, b[1+e.fb:]) != nil {
		return ErrBadPoint
	}
	if !e.onCurve(e.px, e.py) {
		return ErrBadPoint
	}
	return nil
}

// onCurve checks y^2 + xy = x^3 + a*x^2 + b without allocating.
func (e *Engine) onCurve(x, y gfbig.Elem) bool {
	f, fs := e.c.F, e.fs
	f.SquareTo(e.t1, y, fs)
	f.MulTo(e.t2, x, y, fs)
	f.AddTo(e.t1, e.t1, e.t2) // lhs = y^2 + xy
	f.SquareTo(e.t2, x, fs)   // x^2
	f.MulTo(e.t3, e.t2, x, fs)
	if !f.IsZero(e.c.A) {
		f.MulTo(e.t2, e.c.A, e.t2, fs)
		f.AddTo(e.t3, e.t3, e.t2)
	}
	f.AddTo(e.t3, e.t3, e.c.B) // rhs = x^3 + a*x^2 + b
	return f.Equal(e.t1, e.t3)
}

// ladderX computes the x-coordinate of k*P into e.xout with the
// Lopez-Dahab x-only Montgomery ladder (the allocation-free twin of
// Curve.MontgomeryLadder), where P is the point with x-coordinate
// base. It reports false when k*P is the point at infinity.
func (e *Engine) ladderX(k []uint32, base gfbig.Elem) bool {
	f, fs := e.c.F, e.fs
	kb := scalarBitLen(k)
	if kb == 0 {
		return false
	}
	e.lx = base
	if kb == 1 { // k == 1
		copy(e.xout, base)
		return true
	}
	// R0 = P: (x, 1); R1 = 2P: (x^4 + b, x^2).
	copy(e.x1, base)
	for i := range e.z1 {
		e.z1[i] = 0
	}
	e.z1[0] = 1
	f.SquareTo(e.z2, base, fs)
	f.SquareTo(e.x2, e.z2, fs)
	f.AddTo(e.x2, e.x2, e.c.B)
	for i := kb - 2; i >= 0; i-- {
		if k[i/32]>>(i%32)&1 == 1 {
			e.mAdd(e.x1, e.z1, e.x2, e.z2)
			e.mDouble(e.x2, e.z2)
		} else {
			e.mAdd(e.x2, e.z2, e.x1, e.z1)
			e.mDouble(e.x1, e.z1)
		}
	}
	if f.IsZero(e.z1) {
		return false
	}
	if f.IsZero(e.z2) {
		// R1 = infinity means R0 = -P, which shares P's x-coordinate.
		copy(e.xout, base)
		return true
	}
	f.InvTo(e.t3, e.z1, fs)
	f.MulTo(e.xout, e.x1, e.t3, fs)
	return true
}

// mAdd: (xa,za) <- (xa,za)+(xb,zb) given the difference point's
// x-coordinate e.lx: Z3 = (Xa*Zb + Xb*Za)^2, X3 = x*Z3 + Xa*Zb*Xb*Za.
func (e *Engine) mAdd(xa, za, xb, zb gfbig.Elem) {
	f, fs := e.c.F, e.fs
	f.MulTo(e.t1, xa, zb, fs)
	f.MulTo(e.t2, xb, za, fs)
	f.AddTo(za, e.t1, e.t2)
	f.SquareTo(za, za, fs)        // Z3
	f.MulTo(e.t1, e.t1, e.t2, fs) // Xa*Zb * Xb*Za
	f.MulTo(e.t2, e.lx, za, fs)   // x * Z3
	f.AddTo(xa, e.t2, e.t1)       // X3
}

// mDouble: (xa,za) <- 2*(xa,za): X3 = Xa^4 + b*Za^4, Z3 = Xa^2*Za^2.
func (e *Engine) mDouble(xa, za gfbig.Elem) {
	f, fs := e.c.F, e.fs
	f.SquareTo(xa, xa, fs)
	f.SquareTo(za, za, fs)
	f.MulTo(e.t1, xa, za, fs) // Z3
	f.SquareTo(xa, xa, fs)
	f.SquareTo(za, za, fs)
	if !e.bOne {
		f.MulTo(za, e.c.B, za, fs)
	}
	f.AddTo(xa, xa, za) // X3
	copy(za, e.t1)
}

// Derive validates the peer's uncompressed public point and appends
// the ECDH shared secret — the x-coordinate of d*Q, FieldBytes wide —
// to dst. Allocation-free when dst has capacity.
func (e *Engine) Derive(dst, peer []byte) ([]byte, error) {
	if err := e.parsePoint(peer); err != nil {
		return nil, err
	}
	if !e.ladderX(e.d, e.px) {
		return nil, ErrPointAtInfinity
	}
	n := len(dst)
	dst = appendZeros(dst, e.fb)
	e.c.F.BytesInto(dst[n:], e.xout)
	return dst, nil
}

// SignAppend deterministically signs digest (RFC 6979 nonces, SEC 1
// truncation, low-s canonical form) and appends r || s (each
// OrderBytes wide) to dst. Allocation-free when dst has capacity.
func (e *Engine) SignAppend(dst, digest []byte) ([]byte, error) {
	if len(digest) == 0 || len(digest) > maxDigestLen {
		return nil, ErrBadDigest
	}
	sf := e.sf
	// e = bits2int(digest) mod n; h1o = int2octets(e) = bits2octets(digest).
	sf.bits2int(e.se, digest)
	sf.condSub(e.se)
	sf.toBytes(e.h1o, e.se)
	e.drbgInit()
	for attempt := 0; ; attempt++ {
		if attempt >= 100 {
			// Unreachable in practice: each candidate is accepted with
			// overwhelming probability. Guarded to bound the loop.
			return nil, errors.New("ecc: signing failed to find a usable nonce")
		}
		if !e.drbgNonce(e.sk) {
			continue
		}
		// r = x(k*G) mod n.
		if !e.ladderX(e.sk, e.c.Gx) {
			e.drbgBump()
			continue
		}
		for i, w := range e.xout {
			e.xwide[i] = w
		}
		sf.reduceWide(e.sr, e.xwide, e.ss)
		if sf.isZero(e.sr) {
			e.drbgBump()
			continue
		}
		// s = k^-1 * (e + r*d) mod n.
		sf.mulMod(e.stmp, e.sr, e.d, e.ss)
		sf.addMod(e.stmp, e.stmp, e.se)
		sf.invMod(e.skinv, e.sk, e.ss)
		sf.mulMod(e.ssig, e.skinv, e.stmp, e.ss)
		if sf.isZero(e.ssig) {
			e.drbgBump()
			continue
		}
		// Canonical low-s form: emit min(s, n-s); (r, n-s) verifies
		// whenever (r, s) does, so signers pin one representative.
		sf.sub(e.stmp2, sf.n, e.ssig)
		if sf.cmp(e.stmp2, e.ssig) < 0 {
			copy(e.ssig, e.stmp2)
		}
		n := len(dst)
		dst = appendZeros(dst, 2*e.ob)
		sf.toBytes(dst[n:n+e.ob], e.sr)
		sf.toBytes(dst[n+e.ob:], e.ssig)
		return dst, nil
	}
}

// VerifyWire checks an r||s signature over digest against an SEC 1
// uncompressed public point. It deliberately runs the independent
// big.Int + projective double-and-add path (VerifyDigest), not the
// engine's fixed-width ladder, so sign and verify cross-check each
// other. Returns ErrVerifyFailed on any semantic failure.
func (e *Engine) VerifyWire(pub, sig, digest []byte) error {
	if len(sig) != 2*e.ob || len(digest) == 0 || len(digest) > maxDigestLen {
		return ErrVerifyFailed
	}
	pt, err := e.c.UnmarshalUncompressed(pub)
	if err != nil || pt.Inf {
		return ErrVerifyFailed
	}
	r := new(big.Int).SetBytes(sig[:e.ob])
	s := new(big.Int).SetBytes(sig[e.ob:])
	if !VerifyDigest(e.c, pt, digest, &Signature{R: r, S: s}) {
		return ErrVerifyFailed
	}
	return nil
}

// scalarBitLen returns the bit length of the little-endian word vector.
func scalarBitLen(k []uint32) int {
	for i := len(k) - 1; i >= 0; i-- {
		if k[i] != 0 {
			n := i * 32
			for v := k[i]; v != 0; v >>= 1 {
				n++
			}
			return n
		}
	}
	return 0
}

// appendZeros extends dst by n zero bytes (growing only when capacity
// is short — steady-state callers pass reusable buffers).
func appendZeros(dst []byte, n int) []byte {
	for i := 0; i < n; i++ {
		dst = append(dst, 0)
	}
	return dst
}

// --- RFC 6979 deterministic nonce DRBG -------------------------------
//
// HMAC-SHA256 built by hand on sha256.Sum256 over engine-owned buffers:
// crypto/hmac's New allocates per instantiation, which would break the
// zero-alloc sign path. Keys are always 32 bytes here (SHA-256 output),
// so the ipad/opad blocks are simple.

func (e *Engine) hmacSetKey(key []byte) {
	for i := 0; i < 64; i++ {
		var k byte
		if i < len(key) {
			k = key[i]
		}
		e.ipad[i] = k ^ 0x36
		e.opad[i] = k ^ 0x5c
	}
}

// hmacStart begins a new MAC computation under the current key.
func (e *Engine) hmacStart() {
	e.hbuf = e.hbuf[:0]
	e.hbuf = append(e.hbuf, e.ipad[:]...)
}

func (e *Engine) hmacWrite(p []byte) {
	e.hbuf = append(e.hbuf, p...)
}

func (e *Engine) hmacWriteByte(b byte) {
	e.hbuf = append(e.hbuf, b)
}

func (e *Engine) hmacSum(out *[32]byte) {
	inner := sha256.Sum256(e.hbuf)
	copy(e.obuf[:64], e.opad[:])
	copy(e.obuf[64:], inner[:])
	*out = sha256.Sum256(e.obuf[:])
}

// drbgInit runs RFC 6979 §3.2 steps b-g for the current digest
// (e.h1o must already hold bits2octets(digest)).
func (e *Engine) drbgInit() {
	for i := range e.hV {
		e.hV[i] = 0x01
		e.hK[i] = 0x00
	}
	for _, sep := range []byte{0x00, 0x01} {
		e.hmacSetKey(e.hK[:])
		e.hmacStart()
		e.hmacWrite(e.hV[:])
		e.hmacWriteByte(sep)
		e.hmacWrite(e.dBytes)
		e.hmacWrite(e.h1o)
		e.hmacSum(&e.hK)
		e.hmacSetKey(e.hK[:])
		e.hmacStart()
		e.hmacWrite(e.hV[:])
		e.hmacSum(&e.hV)
	}
}

// drbgNonce generates the next candidate nonce (§3.2 step h),
// reporting false (after bumping the state) when the candidate falls
// outside [1, n-1].
func (e *Engine) drbgNonce(k []uint32) bool {
	e.tbuf = e.tbuf[:0]
	for len(e.tbuf)*8 < e.sf.bits {
		e.hmacSetKey(e.hK[:])
		e.hmacStart()
		e.hmacWrite(e.hV[:])
		e.hmacSum(&e.hV)
		e.tbuf = append(e.tbuf, e.hV[:]...)
	}
	e.sf.bits2int(k, e.tbuf)
	if e.sf.isZero(k) || e.sf.cmp(k, e.sf.n) >= 0 {
		e.drbgBump()
		return false
	}
	return true
}

// drbgBump advances the DRBG state after a rejected candidate:
// K = HMAC_K(V || 0x00); V = HMAC_K(V).
func (e *Engine) drbgBump() {
	e.hmacSetKey(e.hK[:])
	e.hmacStart()
	e.hmacWrite(e.hV[:])
	e.hmacWriteByte(0x00)
	e.hmacSum(&e.hK)
	e.hmacSetKey(e.hK[:])
	e.hmacStart()
	e.hmacWrite(e.hV[:])
	e.hmacSum(&e.hV)
}
