// Package gfp is the public API of the Galois Field Processor
// reproduction: a Go implementation of the ISCA 2017 paper "A
// Programmable Galois Field Processor for the Internet of Things".
//
// It re-exports the user-facing pieces of the internal packages:
//
//   - Small binary fields GF(2^m), m <= 16, with arbitrary irreducible
//     polynomials (Field), and the wide binary fields of the NIST curves
//     (WideField).
//   - Reed-Solomon and binary BCH codecs with the paper's full decoder
//     datapath (syndromes, Berlekamp-Massey, Chien search, Forney).
//   - AES-128/192/256 built from GF arithmetic, plus CTR/CBC modes.
//   - Binary-curve elliptic cryptography (NIST K-163 .. K-283) and ECDH.
//   - The GF processor itself: the Table-1 instruction set, a two-pass
//     assembler, and the cycle-accurate two-stage processor simulator
//     with the configurable GF arithmetic unit.
//   - Channel models (BSC, Gilbert-Elliott, BPSK/AWGN) for link
//     simulations.
//
// See the examples directory for runnable walkthroughs and cmd/paperbench
// for the harness that regenerates every table and figure of the paper's
// evaluation section.
package gfp

import (
	"repro/internal/aes"
	"repro/internal/bch"
	"repro/internal/channel"
	"repro/internal/core"
	"repro/internal/ecc"
	"repro/internal/gf"
	"repro/internal/gfbig"
	"repro/internal/isa"
	"repro/internal/pipeline"
	"repro/internal/rs"
)

// --- Small Galois fields ---

// Field is a small binary Galois field GF(2^m), m = 1..16.
type Field = gf.Field

// Elem is an element of a small field.
type Elem = gf.Elem

// NewField constructs GF(2^m) with the given irreducible polynomial
// (leading x^m term included, e.g. 0x11B for the AES field).
func NewField(m int, poly uint32) (*Field, error) { return gf.New(m, poly) }

// DefaultField constructs GF(2^m) with a conventional primitive polynomial.
func DefaultField(m int) (*Field, error) { return gf.NewDefault(m) }

// AESField returns GF(2^8)/x^8+x^4+x^3+x+1.
func AESField() *Field { return gf.AES() }

// IrreduciblePolys enumerates all irreducible degree-m polynomials —
// every one of them is a legal processor configuration.
func IrreduciblePolys(m int) []uint32 { return gf.IrreduciblePolys(m) }

// --- Kernel tiers ---

// ForceScalarKernels turns the process-wide scalar force on or off. A
// field's bulk kernels are bound when built: the product table for
// m <= 8, the scalar reference loops above. While the force is on,
// every field runs the scalar loops, bit-exact with the table, and the
// wide-field multiply and AES-GCM leave the carry-less multiply and AES
// instructions. Equivalent to GFP_KERNEL_TIER=scalar; see docs/GF.md.
func ForceScalarKernels(on bool) { gf.ForceScalarKernels(on) }

// VerifyKernels differentially checks f's table kernels against the
// scalar reference over pseudo-random vectors, returning the first
// disagreement (nil when they agree).
func VerifyKernels(f *Field, vectors int, seed int64) error {
	return gf.VerifyKernels(f, vectors, seed)
}

// --- Wide Galois fields (ECC_l) ---

// WideField is a large binary field GF(2^m) (m up to 571) with a sparse
// reduction polynomial.
type WideField = gfbig.Field

// WideElem is an element of a wide field (little-endian 32-bit words).
type WideElem = gfbig.Elem

// F233 returns GF(2^233)/x^233+x^74+1, the paper's flagship wide field.
func F233() *WideField { return gfbig.F233() }

// NewWideField builds GF(2^m) with reduction terms x^m + x^e1 + ... + 1.
func NewWideField(m int, exps ...int) (*WideField, error) { return gfbig.New(m, exps...) }

// --- Error-correction codes ---

// RSCode is a Reed-Solomon code over GF(2^m).
type RSCode = rs.Code

// RSDecodeResult reports a Reed-Solomon decode.
type RSDecodeResult = rs.DecodeResult

// NewRS constructs RS(n, k) over field f (n <= 2^m - 1; shortened codes
// allowed). The paper's flagship is NewRS(f8, 255, 239).
func NewRS(f *Field, n, k int) (*RSCode, error) { return rs.New(f, n, k) }

// BCHCode is a binary BCH code of length 2^m - 1.
type BCHCode = bch.Code

// BCHDecodeResult reports a BCH decode.
type BCHDecodeResult = bch.DecodeResult

// NewBCH constructs the narrow-sense binary BCH code with error-correcting
// capability t over field f. The paper's flagship, BCH(31,11,5), is
// NewBCH(f5, 5).
func NewBCH(f *Field, t int) (*BCHCode, error) { return bch.New(f, t) }

// InterleavedRS is a depth-I symbol-interleaved RS frame codec whose
// burst tolerance is I*t symbols.
type InterleavedRS = rs.Interleaved

// NewInterleavedRS wraps an RS code with interleaving depth I.
func NewInterleavedRS(c *RSCode, depth int) (*InterleavedRS, error) {
	return rs.NewInterleaved(c, depth)
}

// MinimalPolynomial returns the binary minimal polynomial of a field
// element (bit i = coefficient of x^i) — the building block of BCH
// generator construction.
func MinimalPolynomial(f *Field, a Elem) uint32 { return gf.MinimalPolynomial(f, a) }

// --- Symmetric cryptography ---

// AES is an AES cipher built from GF(2^8) arithmetic. It satisfies
// crypto/cipher.Block.
type AES = aes.Cipher

// NewAES creates an AES-128/192/256 cipher for a 16/24/32-byte key.
func NewAES(key []byte) (*AES, error) { return aes.NewCipher(key) }

// GCM is an AES-GCM AEAD (96-bit nonce, 16-byte tag) whose GHASH
// authenticator is GF(2^128) arithmetic on the same carry-free-product
// primitives as the wide-field ECC operations.
type GCM = aes.GCM

// --- Asymmetric cryptography ---

// Curve is a binary elliptic curve y^2 + xy = x^3 + ax^2 + b.
type Curve = ecc.Curve

// CurvePoint is an affine curve point.
type CurvePoint = ecc.Point

// ECDHKey is an ECDH private/public key pair.
type ECDHKey = ecc.PrivateKey

// ECDSASignature is an ECDSA signature over a binary curve.
type ECDSASignature = ecc.Signature

// ECDSAVerify checks sig over msg (SHA-256) against the public point.
func ECDSAVerify(c *Curve, pub CurvePoint, msg []byte, sig *ECDSASignature) bool {
	return ecc.Verify(c, pub, msg, sig)
}

// K233 returns the NIST Koblitz curve the paper hand-codes.
func K233() *Curve { return ecc.K233() }

// Curves returns all built-in NIST binary curves.
func Curves() []*Curve { return ecc.Curves() }

// GenerateECDHKey creates an ECDH key pair on the curve.
func GenerateECDHKey(c *Curve, rand interface{ Read([]byte) (int, error) }) (*ECDHKey, error) {
	return ecc.GenerateKey(c, rand)
}

// --- The processor ---

// Program is an assembled GF-processor program.
type Program = isa.Program

// Assemble translates assembly text (Table-1 GF instructions plus the
// M0+ scalar subset) into a Program.
func Assemble(src string) (*Program, error) { return isa.Assemble(src) }

// Processor is the cycle-accurate two-stage in-order core with the GF
// arithmetic unit.
type Processor = core.Processor

// ProcessorConfig configures simulator construction.
type ProcessorConfig = core.Config

// NewProcessor builds a simulator for the program. Set cfg.GFUnit to
// attach the GF arithmetic unit (the paper's processor); leave it false
// for the baseline scalar core.
func NewProcessor(p *Program, cfg ProcessorConfig) (*Processor, error) { return core.New(p, cfg) }

// GFUnit is the standalone GF arithmetic unit microarchitecture model.
type GFUnit = core.GFUnit

// NewGFUnit returns a GF unit configured for an irreducible polynomial of
// degree 2..8.
func NewGFUnit(poly uint32) (*GFUnit, error) { return core.NewGFUnit(poly) }

// --- Channels ---

// Channel corrupts bit streams.
type Channel = channel.Channel

// NewBSC returns a binary symmetric channel.
func NewBSC(p float64, seed int64) (*channel.BSC, error) { return channel.NewBSC(p, seed) }

// NewBurstChannel returns a Gilbert-Elliott bursty channel.
func NewBurstChannel(pGB, pBG, peGood, peBad float64, seed int64) (*channel.GilbertElliott, error) {
	return channel.NewGilbertElliott(pGB, pBG, peGood, peBad, seed)
}

// BPSKBitErrorProb maps Eb/N0 (dB) to the uncoded BPSK/AWGN bit-error
// probability.
func BPSKBitErrorProb(ebn0dB float64) float64 { return channel.BPSKBitErrorProb(ebn0dB) }

// ForkableChannel is a Channel that derives independent deterministic
// per-worker instances — required by concurrent pipelines, since the
// channel models themselves are not goroutine-safe.
type ForkableChannel = channel.Forker

// --- Concurrent frame pipelines ---

// Pipeline is a concurrent, batched, backpressured frame-processing
// engine: an ordered list of stages, each fanned out over a bounded
// worker pool, with output delivered strictly in submission order
// (Start) or in completion order to a callback (StartFunc). See
// docs/PIPELINE.md and cmd/gfpipe.
type Pipeline = pipeline.Pipeline

// PipelineConfig sizes a pipeline (workers per stage, queue depth).
type PipelineConfig = pipeline.Config

// PipelineRun is one execution of a pipeline: Submit frames, range over
// Out, Close when done.
type PipelineRun = pipeline.Run

// Frame is one unit of work flowing through a pipeline.
type Frame = pipeline.Frame

// PipelineStage transforms frames; implementations must be safe for
// concurrent use (see StageFunc and the adapters in internal/pipeline).
type PipelineStage = pipeline.Stage

// StageFunc adapts a function to a stateless pipeline stage.
type StageFunc = pipeline.Func

// StageStats is the per-stage counter set a pipeline accumulates.
type StageStats = pipeline.StageStats

// NewPipeline builds a pipeline from stages.
func NewPipeline(cfg PipelineConfig, stages ...PipelineStage) (*Pipeline, error) {
	return pipeline.New(cfg, stages...)
}

// RSFrameEncodeStage / RSFrameDecodeStage wrap an interleaved RS frame
// codec (field m <= 8, one symbol per payload byte; depth 1 for the
// plain code) as pipeline stages.
func RSFrameEncodeStage(iv *InterleavedRS) (PipelineStage, error) {
	return pipeline.NewRSFrameEncode(iv)
}

// RSFrameDecodeStage is the decoding counterpart of RSFrameEncodeStage.
func RSFrameDecodeStage(iv *InterleavedRS) (PipelineStage, error) {
	return pipeline.NewRSFrameDecode(iv)
}

// BCHEncodeStage / BCHDecodeStage wrap a binary BCH codec (one bit per
// payload byte) as pipeline stages.
func BCHEncodeStage(c *BCHCode) PipelineStage { return pipeline.NewBCHEncode(c) }

// BCHDecodeStage is the decoding counterpart of BCHEncodeStage.
func BCHDecodeStage(c *BCHCode) PipelineStage { return pipeline.NewBCHDecode(c) }

// SealStage / OpenStage wrap AES-GCM as pipeline stages; the per-frame
// nonce is derived from the frame sequence number.
func SealStage(g *GCM, aad []byte) PipelineStage { return pipeline.NewSealAEAD(g, aad) }

// OpenStage is the opening counterpart of SealStage.
func OpenStage(g *GCM, aad []byte) PipelineStage { return pipeline.NewOpenAEAD(g, aad) }

// CorruptStage pushes payloads through a channel model (m bits per
// payload byte), forking one deterministic channel per worker.
func CorruptStage(proto ForkableChannel, m int, seed int64) (PipelineStage, error) {
	return pipeline.NewCorrupt(proto, m, seed)
}
