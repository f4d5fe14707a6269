package main

import (
	"crypto/rand"
	"encoding/json"
	"math"
	"os"
	"reflect"
	"testing"
	"time"

	"repro/internal/ecc"
	"repro/internal/server"
)

func TestArrivalTicksDeterministicAtConfiguredRate(t *testing.T) {
	const n, rate = 20000, 1500.0
	a, b := arrivalTicks(7, n, rate), arrivalTicks(7, n, rate)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed gave different schedules")
	}
	if reflect.DeepEqual(a, arrivalTicks(8, n, rate)) {
		t.Fatal("different seeds gave the same schedule")
	}
	span := float64(n) / rate * float64(time.Second/tick)
	if got := a[n-1]; got != int64(math.Ceil(span)) {
		t.Fatalf("last arrival at tick %d, want %v: mean rate is not %v/s", got, math.Ceil(span), rate)
	}
	if a[0] < 1 {
		t.Fatalf("first arrival at tick %d, want >= 1", a[0])
	}
	// Poisson: gaps have a coefficient of variation near 1.
	var sum, sq float64
	for i := 1; i < n; i++ {
		if a[i] < a[i-1] {
			t.Fatalf("tick %d before tick %d", a[i], a[i-1])
		}
		g := float64(a[i] - a[i-1])
		sum += g
		sq += g * g
	}
	m := sum / float64(n-1)
	if cv := math.Sqrt(sq/float64(n-1)-m*m) / m; cv < 0.8 || cv > 1.2 {
		t.Fatalf("gap coefficient of variation %.2f, want about 1", cv)
	}
}

func TestPercentileNearestRank(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	for _, c := range []struct{ p, want float64 }{{50, 50}, {99, 99}, {100, 100}, {1, 1}, {99.5, 100}} {
		if got := percentile(xs, c.p); got != c.want {
			t.Errorf("p%v of 1..100 = %v, want %v", c.p, got, c.want)
		}
	}
	ten := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	if got := percentile(ten, 99); got != 10 {
		t.Errorf("p99 of 1..10 = %v, want 10", got)
	}
	// A failed request ranks as +Inf: it lands in the tail.
	failed := sortedCopy(append(append([]float64{}, xs[:99]...), math.Inf(1)))
	if got := percentile(failed, 99); got != 99 {
		t.Errorf("p99 with one failure = %v, want 99", got)
	}
	if got := percentile(failed, 100); !math.IsInf(got, 1) {
		t.Errorf("p100 with one failure = %v, want +Inf", got)
	}
	for _, c := range []struct{ n, want int }{{100, 1}, {1000, 10}, {1600, 16}, {22752, 227}} {
		if got := beyond(c.n, 99); got != c.want {
			t.Errorf("beyond(%d, 99) = %d, want %d", c.n, got, c.want)
		}
	}
}

// TestPacedTailSamples checks that every paced phase gives each op class
// whose p99 is reported at least minTailSamples samples.
func TestPacedTailSamples(t *testing.T) {
	for _, w := range workloads {
		for _, seconds := range []int{1, 40} {
			pl := w.plan(seconds)
			if pl.paced%w.poolSize() != 0 {
				t.Errorf("%s: paced count %d is not whole pool cycles", w.name, pl.paced)
			}
			_, pool := testPool(t, w)
			ph := newPhase("paced", 1, pool, pl.paced, 1, false)
			for _, c := range p99Classes {
				if n := len(ph.latencies(c.keep)); n > 0 && n < minTailSamples {
					t.Errorf("%s --seconds %d: %d %s samples, want at least %d", w.name, seconds, n, c.name, minTailSamples)
				}
			}
		}
	}
}

func testPool(t *testing.T, w *workload) (*gen, []*request) {
	t.Helper()
	g, err := newGen(3)
	if err != nil {
		t.Fatal(err)
	}
	pool, err := g.pool(w)
	if err != nil {
		t.Fatal(err)
	}
	return g, pool
}

func TestPoolSharesExact(t *testing.T) {
	for _, w := range workloads {
		if w.name == "handshake" && testing.Short() {
			continue // signing the verify inputs takes a while
		}
		_, pool := testPool(t, w)
		counts := map[opSpec]int{}
		for _, r := range pool {
			counts[r.spec]++
		}
		for _, s := range w.mix {
			if counts[s] != s.count {
				t.Errorf("%s: %d %v entries in the pool, want %d", w.name, counts[s], s.op, s.count)
			}
		}
		pl := w.plan(20)
		for _, n := range []int{pl.warm, pl.capacity, pl.paced} {
			if n%len(pool) != 0 {
				t.Fatalf("%s: phase of %d requests is not whole pool cycles of %d", w.name, n, len(pool))
			}
			ph := newPhase("p", 1, pool, n, 5, false)
			for c := 0; c < n; c += len(pool) {
				seen := make([]bool, len(pool))
				for _, j := range ph.order[c : c+len(pool)] {
					if seen[j] {
						t.Fatalf("%s: pool entry %d sent twice in one cycle", w.name, j)
					}
					seen[j] = true
				}
			}
		}
	}
}

func TestRSErrorsWithinT(t *testing.T) {
	g, err := newGen(4)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range []opSpec{withCount(rsDecode16, 144), withCount(rsDecode1, 160)} {
		rs, err := g.entries(s, s.count)
		if err != nil {
			t.Fatal(err)
		}
		hist := make([]int, s.maxErr+1)
		buf := g.code.NewDecodeBuf()
		for _, r := range rs {
			sum := 0
			for i := 0; i < s.words; i++ {
				recv := toElems(r.payload[i*g.code.N : (i+1)*g.code.N])
				res, err := g.code.DecodeTo(buf, recv)
				if err != nil {
					t.Fatalf("input does not decode: %v", err)
				}
				if res.NumErrors > g.code.T || res.NumErrors > s.maxErr {
					t.Fatalf("codeword with %d errors, want at most %d (t=%d)", res.NumErrors, s.maxErr, g.code.T)
				}
				if got := toBytes(res.Message); string(got) != string(r.want[i*g.code.K:(i+1)*g.code.K]) {
					t.Fatal("decoded message differs from the expectation")
				}
				hist[res.NumErrors]++
				sum += res.NumErrors
			}
			if sum != r.errors {
				t.Fatalf("entry records %d errors, decoder corrected %d", r.errors, sum)
			}
		}
		for e, c := range hist {
			if c != s.count*s.words/(s.maxErr+1) {
				t.Errorf("%d codewords with %d errors, want exactly %d", c, e, s.count*s.words/(s.maxErr+1))
			}
		}
	}
}

func flip(b []byte) []byte {
	out := append([]byte(nil), b...)
	out[len(out)/2] ^= 0x01
	return out
}

func TestFlippedByteFailsCheck(t *testing.T) {
	g, err := newGen(5)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range []opSpec{rsDecode16, rsDecode1, rsEncode1, aesOpen, aesSeal, eccVerify} {
		rs, err := g.entries(s, 1)
		if err != nil {
			t.Fatal(err)
		}
		r := rs[0]
		if !r.checkNow(server.StatusOK, r.want) {
			t.Fatalf("%v: expected reply fails its check", s.op)
		}
		if r.checkNow(server.StatusCodecFailed, r.want) {
			t.Fatalf("%v: error status passes the check", s.op)
		}
		if len(r.want) > 0 && r.checkNow(server.StatusOK, flip(r.want)) {
			t.Fatalf("%v: reply with a flipped byte passes the check", s.op)
		}
	}

	d, err := g.device(1)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := ecc.NewEngine(g.curve, d.key.D)
	if err != nil {
		t.Fatal(err)
	}
	digest := g.bytes(digestBytes)
	sig, err := eng.SignAppend(nil, digest)
	if err != nil {
		t.Fatal(err)
	}
	if err := g.checkSign(eng.Public(), digest, sig); err != nil {
		t.Fatalf("valid signature fails: %v", err)
	}
	if g.checkSign(eng.Public(), digest, flip(sig)) == nil {
		t.Fatal("signature with a flipped byte passes")
	}

	rs, err := g.entries(eccSession, 1)
	if err != nil {
		t.Fatal(err)
	}
	r := rs[0]
	pb := eng.PointBytes()
	resp, err := eng.SecureSession(rand.Reader, nil, r.payload[:pb], r.payload[pb:])
	if err != nil {
		t.Fatal(err)
	}
	if err := g.checkSession(r, resp); err != nil {
		t.Fatalf("valid session reply fails: %v", err)
	}
	if g.checkSession(r, flip(resp)) == nil {
		t.Fatal("session reply with a flipped byte passes")
	}
}

// TestStackEndToEnd runs one pool cycle of the mixed workload through
// the stack and checks replies and ledgers as a run does.
func TestStackEndToEnd(t *testing.T) {
	w, err := workloadByName("mixed")
	if err != nil {
		t.Fatal(err)
	}
	g, pool := testPool(t, w)
	sg, firsts, err := setupInputs(w, 3)
	if err != nil {
		t.Fatal(err)
	}
	b, err := setUp(firsts)
	if err != nil {
		t.Fatal(err)
	}
	defer b.close()
	ph := newPhase("cycle", 2, pool, len(pool), 9, false)
	if err := b.cl.runClosed(ph, window, time.Minute); err != nil {
		t.Fatal(err)
	}
	if err := b.st.ledger(b.cl.sent.Load()); err != nil {
		t.Fatal(err)
	}
	pub, err := serverPub(b.st)
	if err != nil {
		t.Fatal(err)
	}
	if err := checkECC(sg, pub, b.ph); err != nil {
		t.Fatal(err)
	}
	if err := checkECC(g, pub, ph); err != nil {
		t.Fatal(err)
	}
	// A signature that does not verify fails its request.
	for i := range ph.recs {
		if ph.req(i).spec.op == server.OpECDSASign {
			a := ph.arenas[ph.recs[i].conn]
			a[ph.recs[i].off] ^= 0x80
			break
		}
	}
	if checkECC(g, pub, ph) == nil {
		t.Fatal("corrupted signature reply passed the ECC check")
	}
	if err := b.close(); err != nil {
		t.Fatal(err)
	}
}

// TestMetricsMatchBenchmarkJSON checks that a run reports exactly the
// metrics, with the units, that BENCHMARK.json declares.
func TestMetricsMatchBenchmarkJSON(t *testing.T) {
	if testing.Short() {
		t.Skip("measures every layer")
	}
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("BENCHMARK.json not found:", err)
	}
	var decl struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &decl); err != nil {
		t.Fatal(err)
	}
	w, _ := workloadByName("mixed")
	g, pool := testPool(t, w)
	layers, err := measureLayers(g, pool)
	if err != nil {
		t.Fatal(err)
	}
	res := func(closed bool) *phaseResult {
		ph := newPhase("p", 1, pool, len(pool), 1, false)
		ph.closed = closed
		for i := range ph.recs {
			ph.recs[i] = record{due: 1, sent: 2, reply: 3, ok: true}
		}
		s := stackSnap{ProxyOp: map[string]histSum{}, ServerOp: map[string]histSum{}, Forwards: []int64{0, 0}}
		return &phaseResult{ph: ph, before: s, after: s}
	}
	for _, c := range []struct {
		got  map[string]metric
		decl []struct{ Name, Unit string }
	}{
		{(&report{endToEnd: endToEnd([]float64{1}, res(true), res(false))}).result(), decl.EndToEnd},
		{func() map[string]metric { m, _ := perLayer(res(true), res(false), res(false), layers); return m }(), decl.PerLayer},
	} {
		want := map[string]string{}
		for _, d := range c.decl {
			want[d.Name] = d.Unit
		}
		got := map[string]string{}
		for k, v := range c.got {
			got[k] = v.Unit
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("reported metrics %v, BENCHMARK.json declares %v", got, want)
		}
	}
}
