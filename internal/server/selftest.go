package server

// Datapath self-verification: a serving process proves its math before
// reporting healthy. The GF kernels' product-table loops are
// differentially checked against the scalar reference for both fields
// the server actually computes in — the RS field and the AES field —
// via gf.VerifyKernels; every GHASH multiply the host can run against
// the bit-serial reference (aes.VerifyGHASH); every AES block encrypt
// the host can run against the byte-wise round functions, with the
// AES-instruction counter mode against the Go one (aes.VerifyBlock);
// and, with ECC enabled,
// every wide-field multiply strategy against schoolbook
// (gfbig.VerifyMulStrategies). The check runs once, lazily, the
// first time health is probed (gfproxy's health gate therefore admits a
// backend into the ring only after its datapath has verified), and can
// be re-run on demand through the /selftest admin endpoint.

import (
	"fmt"
	"strings"
	"sync"
	"time"

	"repro/internal/aes"
	"repro/internal/gf"
	"repro/internal/gfbig"
)

// selftestVectors is how many pseudo-random vectors per op each field is
// checked with. On a 2-vCPU Xeon VM (go1.24.0) the first run with
// New's defaults (the RS and AES fields, GHASH, the AES block and the
// K-233 multiply) takes a median 5.3 ms over 15 fresh processes, and
// gf.VerifyKernels on a fresh GF(2^8), its product table built inside
// the call, a median 1.7 ms.
const selftestVectors = 8

// SelfTestResult reports one differential verification run.
type SelfTestResult struct {
	OK        bool     `json:"ok"`
	Fields    []string `json:"fields"`  // fields checked, e.g. "GF(2^8) poly=0x11d"
	Tiers     []string `json:"tiers"`   // verified kernel tiers per field, comma-joined
	Vectors   int      `json:"vectors"` // vectors per op per field
	ElapsedNs int64    `json:"elapsed_ns"`
	Error     string   `json:"error,omitempty"` // first disagreement, when !OK
}

// selftest is the cached startup verification state.
type selftest struct {
	once sync.Once
	res  SelfTestResult
}

// SelfTest runs the differential kernel verification for the server's
// serving fields and returns the result. It is safe for concurrent use
// and deliberately un-cached: the /selftest endpoint re-checks the live
// tables on every call.
func (s *Server) SelfTest() SelfTestResult {
	return runSelfTest(s.iv.Code.F, s.eccField(), time.Now().UnixNano())
}

// startupSelfTest returns the once-per-process verification run that
// gates Healthy. The seed is fixed so a failing deployment reproduces
// byte-for-byte.
func (s *Server) startupSelfTest() SelfTestResult {
	s.st.once.Do(func() {
		s.st.res = runSelfTest(s.iv.Code.F, s.eccField(), 1)
	})
	return s.st.res
}

// eccField returns the big binary field the ECC ops compute in, nil
// when the ECC service is disabled.
func (s *Server) eccField() *gfbig.Field {
	if s.ecc == nil {
		return nil
	}
	return s.ecc.eng.Curve().F
}

func runSelfTest(rsField *gf.Field, eccField *gfbig.Field, seed int64) SelfTestResult {
	fields := []*gf.Field{rsField}
	// The AES-GCM ops compute in the AES field; check it too unless the
	// RS field already is it.
	aesF := gf.AES()
	if rsField.Poly() != aesF.Poly() || rsField.M() != aesF.M() {
		fields = append(fields, aesF)
	}
	res := SelfTestResult{OK: true, Vectors: selftestVectors}
	start := time.Now()
	for _, f := range fields {
		res.Fields = append(res.Fields, fmt.Sprintf("%v poly=%#x", f, f.Poly()))
		res.Tiers = append(res.Tiers, strings.Join(f.Kernels().AvailableTiers(), ","))
		if res.OK {
			if err := gf.VerifyKernels(f, selftestVectors, seed); err != nil {
				res.OK = false
				res.Error = err.Error()
			}
		}
	}
	// GCM's authenticator multiplies in GF(2^128): check each GHASH
	// multiply the host can run, whichever one NewGCM picked.
	res.Fields = append(res.Fields, "GF(2^128) (GHASH)")
	res.Tiers = append(res.Tiers, strings.Join(aes.GHASHStrategies(), ","))
	if res.OK {
		if err := aes.VerifyGHASH(selftestVectors, seed); err != nil {
			res.OK = false
			res.Error = err.Error()
		}
	}
	// The GCM ops encrypt on the block strategy NewCipher picked: check
	// each one the host can run.
	res.Fields = append(res.Fields, "AES block")
	res.Tiers = append(res.Tiers, strings.Join(aes.BlockStrategies(), ","))
	if res.OK {
		if err := aes.VerifyBlock(selftestVectors, seed); err != nil {
			res.OK = false
			res.Error = err.Error()
		}
	}
	// The ECC ops compute in a big binary field (gfbig); verify each
	// multiply strategy the host can run for it against the schoolbook
	// reference so /healthz gates on the ECC datapath too.
	if eccField != nil {
		res.Fields = append(res.Fields, eccField.String()+" (gfbig)")
		res.Tiers = append(res.Tiers, strings.Join(eccField.AvailableStrategies(), ","))
		if res.OK {
			if err := eccField.VerifyMulStrategies(selftestVectors, seed); err != nil {
				res.OK = false
				res.Error = err.Error()
			}
		}
	}
	res.ElapsedNs = time.Since(start).Nanoseconds()
	return res
}
