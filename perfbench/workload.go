package main

import (
	"bytes"
	"fmt"
	"math/big"
	"math/rand"

	"repro/internal/aes"
	"repro/internal/ecc"
	"repro/internal/gf"
	"repro/internal/rs"
	"repro/internal/server"
)

// serverKey is the AES key gfserved runs with when -key is empty (the
// server's well-known demo key). The benchmark seals and opens under it
// to precompute the aes expectations, so a server running another key
// fails the first verified reply of set-up.
const serverKey = "gfpipe-demo-key!"

// The fixed pool of device keys: the same numDevices keys in every run,
// picked per request by the run seed.
const (
	numDevices     = 64
	deviceSeed     = 0x67667062
	digestBytes    = 32
	challengeBytes = 32
)

// opSpec is one op class of a workload: the op, its exact number of
// entries in the input pool, and the shape of its inputs.
type opSpec struct {
	op     server.Op
	count  int // entries in the pool
	words  int // rs ops: codewords per request
	maxErr int // rs-decode: symbol errors per codeword, uniform over 0..maxErr
	size   int // aes ops: plaintext bytes
}

// workload is one traffic mix. The pool holds exactly count entries of
// each op, so every phase that walks whole pool cycles sends the exact
// shares.
type workload struct {
	name string
	mix  []opSpec
	// rate is the paced phase's mean arrival rate (req/s), fixed so
	// that a change in capacity shows as a change in latency. It is
	// about an eighth of capacity (a seventh for handshake, the lowest
	// rate that gives minTailSamples in 40 s): the shared host's speed
	// halves for long periods, and at a quarter of capacity the tail
	// then explodes.
	rate float64
	// capacity is the closed-loop rate (req/s) a prototype sustained on
	// the 2-CPU host. It only sizes the capacity phase's request count.
	capacity float64
}

// Codec shapes shared by the workloads and the layer measurements.
var (
	rsDecode16 = opSpec{op: server.OpRSDecode, words: 16, maxErr: 8}
	rsDecode1  = opSpec{op: server.OpRSDecode, words: 1, maxErr: 4}
	rsEncode1  = opSpec{op: server.OpRSEncode, words: 1}
	aesOpen    = opSpec{op: server.OpOpen, size: 16 * 239}
	aesSeal    = opSpec{op: server.OpSeal, size: 256}
	eccSign    = opSpec{op: server.OpECDSASign}
	eccVerify  = opSpec{op: server.OpECDSAVerify}
	eccSession = opSpec{op: server.OpSecureSession}
)

func withCount(s opSpec, n int) opSpec { s.count = n; return s }

// codec reports whether the op is an rs or aes op; the others are ECC.
func (s opSpec) codec() bool {
	switch s.op {
	case server.OpRSEncode, server.OpRSDecode, server.OpSeal, server.OpOpen:
		return true
	}
	return false
}

var workloads = []*workload{
	{
		name:     "uplink",
		mix:      []opSpec{withCount(rsDecode16, 144), withCount(aesOpen, 144)},
		rate:     800,
		capacity: 6100,
	},
	{
		name:     "handshake",
		mix:      []opSpec{withCount(eccSession, 80), withCount(eccVerify, 80), withCount(eccSign, 40)},
		rate:     60,
		capacity: 445,
	},
	{
		name: "mixed",
		mix: []opSpec{withCount(rsEncode1, 160), withCount(rsDecode1, 160),
			withCount(aesSeal, 60), withCount(eccSign, 20)},
		rate:     1200,
		capacity: 10500,
	},
}

func workloadByName(name string) (*workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q (want uplink, handshake or mixed)", name)
}

func (w *workload) poolSize() int {
	n := 0
	for _, s := range w.mix {
		n += s.count
	}
	return n
}

// minTailSamples is the fewest paced samples of each op class whose p99
// a run reports, so that every p99 rests on at least 20 samples beyond
// it.
const minTailSamples = 2000

// pacedMin is the fewest paced requests, in whole pool cycles, that give
// every op class of the workload (codec, ECC) minTailSamples samples.
func (w *workload) pacedMin() int {
	var codec, ecc int
	for _, s := range w.mix {
		if s.codec() {
			codec += s.count
		} else {
			ecc += s.count
		}
	}
	cycles := 1
	for _, n := range []int{codec, ecc} {
		if n > 0 {
			cycles = max(cycles, (minTailSamples+n-1)/n)
		}
	}
	return cycles * w.poolSize()
}

// request is one pool entry: the bytes sent and what the reply must be.
type request struct {
	spec    opSpec
	params  []byte
	payload []byte
	// want is the exact reply payload, compared as the reply arrives;
	// nil for the ECC replies that are checked after the timed phases.
	want []byte
	// errors is the number of symbol errors injected (rs-decode).
	errors int
	// digest (ecdsa-sign) and device/challenge (secure-session) are what
	// the post-phase ECC checks need.
	digest    []byte
	device    int
	challenge []byte
}

// checkNow reports whether a reply passes the checks that cost nothing
// during timing: an OK status and, where known up front, the exact
// bytes.
func (r *request) checkNow(st server.Status, payload []byte) bool {
	if st != server.StatusOK {
		return false
	}
	return r.want == nil || bytes.Equal(payload, r.want)
}

// device is one fixed device key pair.
type device struct {
	key *ecc.PrivateKey
	pub []byte
}

// gen makes seeded inputs and holds what checking them needs.
type gen struct {
	rng     *rand.Rand
	code    *rs.Code
	gcm     *aes.GCM
	curve   *ecc.Curve
	devices [numDevices]*device
}

func newGen(seed int64) (*gen, error) {
	code, err := rs.New(gf.MustDefault(8), 255, 239)
	if err != nil {
		return nil, err
	}
	cipher, err := aes.NewCipher([]byte(serverKey))
	if err != nil {
		return nil, err
	}
	curve, err := ecc.CurveByName(server.DefaultCurve)
	if err != nil {
		return nil, err
	}
	return &gen{rng: rand.New(rand.NewSource(seed)), code: code, gcm: cipher.NewGCM(), curve: curve}, nil
}

// device returns fixed device i, derived on first use. Everything that
// runs concurrently with checks only reads devices made earlier.
func (g *gen) device(i int) (*device, error) {
	if d := g.devices[i]; d != nil {
		return d, nil
	}
	k, err := g.curve.RandomScalar(rand.New(rand.NewSource(deviceSeed + int64(i))))
	if err != nil {
		return nil, err
	}
	key, err := ecc.NewPrivateKey(g.curve, k)
	if err != nil {
		return nil, err
	}
	d := &device{key: key, pub: g.curve.MarshalUncompressed(key.Pub)}
	g.devices[i] = d
	return d, nil
}

// pool makes a workload's input pool: exactly count entries of each op,
// shuffled by the seed.
func (g *gen) pool(w *workload) ([]*request, error) {
	var out []*request
	for _, s := range w.mix {
		rs, err := g.entries(s, s.count)
		if err != nil {
			return nil, err
		}
		out = append(out, rs...)
	}
	g.rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out, nil
}

// entries makes n inputs of one op class.
func (g *gen) entries(s opSpec, n int) ([]*request, error) {
	out := make([]*request, n)
	var errCounts []int
	if s.op == server.OpRSDecode {
		// Exactly uniform over 0..maxErr when n*words is a multiple of
		// maxErr+1, then shuffled.
		errCounts = make([]int, n*s.words)
		for i := range errCounts {
			errCounts[i] = i % (s.maxErr + 1)
		}
		g.rng.Shuffle(len(errCounts), func(i, j int) { errCounts[i], errCounts[j] = errCounts[j], errCounts[i] })
	}
	for i := range out {
		r := &request{spec: s}
		var err error
		switch s.op {
		case server.OpRSEncode:
			err = g.rsEncode(r, s.words)
		case server.OpRSDecode:
			err = g.rsDecode(r, errCounts[i*s.words:(i+1)*s.words])
		case server.OpSeal, server.OpOpen:
			err = g.aes(r, s.op, s.size)
		case server.OpECDSASign:
			r.digest = g.bytes(digestBytes)
			r.payload = r.digest
		case server.OpECDSAVerify:
			err = g.verify(r)
		case server.OpSecureSession:
			err = g.session(r)
		default:
			err = fmt.Errorf("no input generator for %v", s.op)
		}
		if err != nil {
			return nil, err
		}
		out[i] = r
	}
	return out, nil
}

func (g *gen) bytes(n int) []byte {
	b := make([]byte, n)
	g.rng.Read(b)
	return b
}

func (g *gen) encode(msg []byte) ([]byte, error) {
	cw, err := g.code.EncodeTo(make([]gf.Elem, g.code.N), toElems(msg))
	if err != nil {
		return nil, err
	}
	return toBytes(cw), nil
}

func (g *gen) rsEncode(r *request, words int) error {
	k := g.code.K
	r.payload = g.bytes(k * words)
	for i := 0; i < words; i++ {
		cw, err := g.encode(r.payload[i*k : (i+1)*k])
		if err != nil {
			return err
		}
		r.want = append(r.want, cw...)
	}
	return nil
}

// rsDecode makes a received word per entry of errs: a random message,
// encoded, with errs[i] symbols at distinct positions flipped to another
// value. Every count is at most t, so every word decodes.
func (g *gen) rsDecode(r *request, errs []int) error {
	k, n := g.code.K, g.code.N
	r.want = g.bytes(k * len(errs))
	for i, e := range errs {
		if e > g.code.T {
			return fmt.Errorf("rs-decode input with %d errors exceeds t=%d", e, g.code.T)
		}
		cw, err := g.encode(r.want[i*k : (i+1)*k])
		if err != nil {
			return err
		}
		for _, pos := range g.rng.Perm(n)[:e] {
			cw[pos] ^= byte(1 + g.rng.Intn(255))
		}
		r.payload = append(r.payload, cw...)
		r.errors += e
	}
	return nil
}

func (g *gen) aes(r *request, op server.Op, size int) error {
	nonce := g.bytes(server.NonceSize)
	plain := g.bytes(size)
	sealed, err := g.gcm.Seal(nonce, plain, nil)
	if err != nil {
		return err
	}
	r.params = nonce
	if op == server.OpSeal {
		r.payload, r.want = plain, sealed
	} else {
		r.payload, r.want = sealed, plain
	}
	return nil
}

// verify makes an ecdsa-verify request carrying a device's signature,
// made with the big.Int reference signer.
func (g *gen) verify(r *request) error {
	d, err := g.device(g.rng.Intn(numDevices))
	if err != nil {
		return err
	}
	digest := g.bytes(digestBytes)
	sig, err := d.key.SignDigest(g.rng, digest)
	if err != nil {
		return err
	}
	ob := (g.curve.Order.BitLen() + 7) / 8
	r.payload = append(r.payload, d.pub...)
	r.payload = append(r.payload, sig.R.FillBytes(make([]byte, ob))...)
	r.payload = append(r.payload, sig.S.FillBytes(make([]byte, ob))...)
	r.payload = append(r.payload, digest...)
	r.want = []byte{} // the OK status is the verdict
	return nil
}

func (g *gen) session(r *request) error {
	r.device = g.rng.Intn(numDevices)
	d, err := g.device(r.device)
	if err != nil {
		return err
	}
	r.challenge = g.bytes(challengeBytes)
	r.payload = append(append([]byte(nil), d.pub...), r.challenge...)
	return nil
}

// checkSign verifies a signature reply against the server's advertised
// public key with the big.Int reference verifier.
func (g *gen) checkSign(pub ecc.Point, digest, sig []byte) error {
	ob := (g.curve.Order.BitLen() + 7) / 8
	if len(sig) != 2*ob {
		return fmt.Errorf("ecdsa-sign reply %dB, want %dB", len(sig), 2*ob)
	}
	s := &ecc.Signature{R: new(big.Int).SetBytes(sig[:ob]), S: new(big.Int).SetBytes(sig[ob:])}
	if !ecc.VerifyDigest(g.curve, pub, digest, s) {
		return fmt.Errorf("ecdsa-sign reply does not verify under the server key")
	}
	return nil
}

// checkSession opens a secure-session reply with the device's key and
// compares the recovered challenge.
func (g *gen) checkSession(r *request, resp []byte) error {
	d := g.devices[r.device]
	key, got, err := ecc.OpenSessionResponse(d.key, d.pub, resp)
	if err != nil {
		return err
	}
	if len(key) != 16 || !bytes.Equal(got, r.challenge) {
		return fmt.Errorf("secure-session reply opened to the wrong challenge")
	}
	return nil
}

func toElems(b []byte) []gf.Elem {
	out := make([]gf.Elem, len(b))
	for i, v := range b {
		out[i] = gf.Elem(v)
	}
	return out
}

func toBytes(e []gf.Elem) []byte {
	out := make([]byte, len(e))
	for i, v := range e {
		out[i] = byte(v)
	}
	return out
}
