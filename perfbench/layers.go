package main

import (
	crand "crypto/rand"
	"runtime"
	"time"

	"repro/internal/ecc"
	"repro/internal/gf"
	"repro/internal/gfbig"
	"repro/internal/server"
)

// layerInputs returns up to n inputs of shape s: the workload's own pool
// entries of that shape when it has them, otherwise fresh ones from the
// seeded generator.
func layerInputs(g *gen, pool []*request, s opSpec, n int) ([]*request, error) {
	var out []*request
	for _, r := range pool {
		if withCount(r.spec, 0) == s && len(out) < n {
			out = append(out, r)
		}
	}
	if len(out) > 0 {
		return out, nil
	}
	return g.entries(s, n)
}

// medianUs runs fn on inputs 0..n-1 for rounds passes, timing each call,
// and returns the nearest-rank median in µs.
func medianUs(n, rounds int, fn func(i int) error) (float64, error) {
	ds := make([]float64, 0, n*rounds)
	for r := 0; r < rounds; r++ {
		for i := 0; i < n; i++ {
			t0 := time.Now()
			if err := fn(i); err != nil {
				return 0, err
			}
			ds = append(ds, float64(time.Since(t0))/1e3)
		}
	}
	return percentile(sortedCopy(ds), 50), nil
}

// allocsPerCall is the heap allocations per call of fn over inputs
// 0..n-1.
func allocsPerCall(n int, fn func(i int) error) (float64, error) {
	var a, b runtime.MemStats
	runtime.ReadMemStats(&a)
	for i := 0; i < n; i++ {
		if err := fn(i); err != nil {
			return 0, err
		}
	}
	runtime.ReadMemStats(&b)
	return float64(b.Mallocs-a.Mallocs) / float64(n), nil
}

// layerShapes are the input shapes of the layer measurements, with how
// many inputs each uses.
var layerShapes = []struct {
	spec opSpec
	n    int
}{
	{rsDecode16, 64}, {rsDecode1, 160}, {rsEncode1, 160}, {aesOpen, 64}, {aesSeal, 60},
	{eccSign, 40}, {eccVerify, 40}, {eccSession, 40},
}

// measureLayers calls each codec layer's public functions in this
// goroutine, after the stack has shut down, on the workload's inputs:
// the unit costs the per-layer table multiplies out.
func measureLayers(g *gen, pool []*request) (map[string]float64, error) {
	in := map[opSpec][]*request{}
	for _, l := range layerShapes {
		rs, err := layerInputs(g, pool, l.spec, l.n)
		if err != nil {
			return nil, err
		}
		in[l.spec] = rs
	}
	out := map[string]float64{}
	code := g.code
	buf := code.NewDecodeBuf()
	words := func(rs []*request, width int) [][]gf.Elem {
		var ws [][]gf.Elem
		for _, r := range rs {
			for i := 0; i < len(r.payload)/width; i++ {
				ws = append(ws, toElems(r.payload[i*width:(i+1)*width]))
			}
		}
		return ws
	}
	decode := func(ws [][]gf.Elem, perCall int) (float64, error) {
		return medianUs(len(ws)/perCall, 3, func(i int) error {
			for _, w := range ws[i*perCall : (i+1)*perCall] {
				if _, err := code.DecodeTo(buf, w); err != nil {
					return err
				}
			}
			return nil
		})
	}
	var err error
	if out["rs.decode16_us"], err = decode(words(in[rsDecode16], code.N), 16); err != nil {
		return nil, err
	}
	if out["rs.decode_us"], err = decode(words(in[rsDecode1], code.N), 1); err != nil {
		return nil, err
	}
	msgs := words(in[rsEncode1], code.K)
	cw := make([]gf.Elem, code.N)
	if out["rs.encode_us"], err = medianUs(len(msgs), 3, func(i int) error {
		_, err := code.EncodeTo(cw, msgs[i])
		return err
	}); err != nil {
		return nil, err
	}

	gcmCall := func(rs []*request) (float64, error) {
		return medianUs(len(rs), 3, func(i int) error {
			r := rs[i]
			var err error
			if r.spec.op == server.OpSeal {
				_, err = g.gcm.Seal(r.params, r.payload, nil)
			} else {
				_, err = g.gcm.Open(r.params, r.payload, nil)
			}
			return err
		})
	}
	if out["aes.open3824_us"], err = gcmCall(in[aesOpen]); err != nil {
		return nil, err
	}
	if out["aes.seal256_us"], err = gcmCall(in[aesSeal]); err != nil {
		return nil, err
	}

	if err := measureECC(g, in, out); err != nil {
		return nil, err
	}
	out["gfbig.mul_ns"], err = mulNs(g)
	return out, err
}

func measureECC(g *gen, in map[opSpec][]*request, out map[string]float64) error {
	d, err := g.device(0)
	if err != nil {
		return err
	}
	eng, err := ecc.NewEngine(g.curve, d.key.D)
	if err != nil {
		return err
	}
	pb, ob := eng.PointBytes(), eng.OrderBytes()
	dst := make([]byte, 0, 256)

	signs := in[eccSign]
	if out["ecc.sign_us"], err = medianUs(len(signs), 2, func(i int) error {
		_, err := eng.SignAppend(dst[:0], signs[i].digest)
		return err
	}); err != nil {
		return err
	}

	verifies := in[eccVerify]
	verify := func(i int) error {
		p := verifies[i].payload
		return eng.VerifyWire(p[:pb], p[pb:pb+2*ob], p[pb+2*ob:])
	}
	if out["ecc.verify_us"], err = medianUs(len(verifies), 1, verify); err != nil {
		return err
	}
	if out["ecc.verify_allocs"], err = allocsPerCall(len(verifies), verify); err != nil {
		return err
	}

	sessions := in[eccSession]
	session := func(i int) error {
		p := sessions[i].payload
		_, err := eng.SecureSession(crand.Reader, dst[:0], p[:pb], p[pb:])
		return err
	}
	if out["ecc.session_us"], err = medianUs(len(sessions), 1, session); err != nil {
		return err
	}
	out["ecc.session_allocs"], err = allocsPerCall(len(sessions), session)
	return err
}

// mulNs times gfbig's allocation-free multiply at the served curve's
// field width: the median of batches of 1000 calls, per call in ns.
func mulNs(g *gen) (float64, error) {
	f := g.curve.F
	s := f.NewScratch()
	var ops [2]gfbig.Elem
	for i := range ops {
		b := g.bytes((f.M() + 7) / 8)
		b[0] &= byte(0xff >> uint(8*len(b)-f.M()))
		e, err := f.SetBytes(b)
		if err != nil {
			return 0, err
		}
		ops[i] = e
	}
	dst := f.Zero()
	const batch = 1000
	us, err := medianUs(25, 1, func(int) error {
		for j := 0; j < batch; j++ {
			f.MulTo(dst, ops[0], ops[1], s)
		}
		return nil
	})
	return us * 1e3 / batch, err
}
