package pipeline

// Stage adapters wrapping the repository's codecs.
//
// The Reed-Solomon and corruption stages implement WorkerLocal: every
// pipeline worker gets a private instance holding its own conversion
// scratch and rs decode buffers, and payloads are drawn from the shared
// buffer pool (bufpool.go), so steady-state frame processing allocates
// nothing. The shared prototype instances remain safe for direct
// concurrent Process calls (as tests do) — they just allocate transient
// scratch per call. Corrupt additionally carries a channel-model RNG, so
// worker w transmits through proto.Fork(seed+w) for an independent
// deterministic stream.
//
// Byte-oriented stages (RS, GCM) require fields with m <= 8 — symbols
// travel one per byte, matching rs.Code.EncodeBytes. BCH stages treat
// the payload as one bit per byte (values 0/1).

import (
	"encoding/binary"
	"fmt"

	"repro/internal/aes"
	"repro/internal/bch"
	"repro/internal/channel"
	"repro/internal/gf"
	"repro/internal/kernels"
	"repro/internal/perf"
	"repro/internal/rs"
)

func bytesToElems(b []byte) []gf.Elem {
	out := make([]gf.Elem, len(b))
	bytesToElemsInto(out, b)
	return out
}

func elemsToBytes(e []gf.Elem) []byte {
	out := make([]byte, len(e))
	elemsToBytesInto(out, e)
	return out
}

func bytesToElemsInto(dst []gf.Elem, b []byte) {
	for i, v := range b {
		dst[i] = gf.Elem(v)
	}
}

func elemsToBytesInto(dst []byte, e []gf.Elem) {
	for i, v := range e {
		dst[i] = byte(v)
	}
}

func requireByteField(f *gf.Field, what string) error {
	if f.M() > 8 {
		return fmt.Errorf("pipeline: %s requires a field with m <= 8, got %v", what, f)
	}
	return nil
}

// --- Reed-Solomon ---

// rsFrameScratch is the per-worker working set of the RS stages: elem
// staging for the message and the frame, plus the codec's frame buffer.
type rsFrameScratch struct {
	msg   []gf.Elem
	frame []gf.Elem
	fb    *rs.FrameBuf
}

func newRSFrameScratch(iv *rs.Interleaved) *rsFrameScratch {
	return &rsFrameScratch{
		msg:   make([]gf.Elem, iv.FrameK()),
		frame: make([]gf.Elem, iv.FrameN()),
		fb:    iv.NewFrameBuf(),
	}
}

// RSFrameEncode encodes an I*k-byte message into a depth-I interleaved
// I*n-byte frame (burst tolerance I*t symbols). Depth 1 is the plain
// code: a k-byte message into one n-byte codeword.
type RSFrameEncode struct {
	IV *rs.Interleaved
	sc *rsFrameScratch // per-worker; nil on the shared prototype
}

// NewRSFrameEncode wraps the interleaved encoder as a stage.
func NewRSFrameEncode(iv *rs.Interleaved) (*RSFrameEncode, error) {
	if err := requireByteField(iv.Code.F, "RSFrameEncode"); err != nil {
		return nil, err
	}
	return &RSFrameEncode{IV: iv}, nil
}

// Name implements Stage.
func (s *RSFrameEncode) Name() string {
	return fmt.Sprintf("rsx%d-encode(%d,%d)", s.IV.Depth, s.IV.Code.N, s.IV.Code.K)
}

// ForWorker implements WorkerLocal.
func (s *RSFrameEncode) ForWorker(w int) Stage {
	return &RSFrameEncode{IV: s.IV, sc: newRSFrameScratch(s.IV)}
}

// Process implements Stage. The payload may batch several interleaved
// frames: any positive multiple of FrameK encodes chunk by chunk through
// the same per-worker scratch. Frame.Width counts codewords (chunks x
// Depth).
func (s *RSFrameEncode) Process(f *Frame) error {
	sc := s.sc
	if sc == nil {
		sc = newRSFrameScratch(s.IV)
	}
	fk, fn := s.IV.FrameK(), s.IV.FrameN()
	if len(f.Data) == 0 || len(f.Data)%fk != 0 {
		return fmt.Errorf("rs: frame message length %d, want a positive multiple of %d", len(f.Data), fk)
	}
	w := len(f.Data) / fk
	pb := getBuf(w * fn)
	for i := 0; i < w; i++ {
		bytesToElemsInto(sc.msg, f.Data[i*fk:(i+1)*fk])
		if _, err := s.IV.EncodeTo(sc.frame, sc.msg, sc.fb); err != nil {
			putBuf(pb)
			return err
		}
		elemsToBytesInto(pb.data[i*fn:(i+1)*fn], sc.frame)
	}
	f.Width = w * s.IV.Depth
	f.setPooled(pb)
	return nil
}

// RSFrameDecode deinterleaves and decodes an I*n-byte frame back to its
// I*k-byte message. Beyond Frame.Corrected it also raises
// Frame.CorrectedMax to the worst per-codeword correction count — the
// margin signal adaptive controllers feed on.
type RSFrameDecode struct {
	IV *rs.Interleaved
	sc *rsFrameScratch // per-worker; nil on the shared prototype
}

// NewRSFrameDecode wraps the interleaved decoder as a stage.
func NewRSFrameDecode(iv *rs.Interleaved) (*RSFrameDecode, error) {
	if err := requireByteField(iv.Code.F, "RSFrameDecode"); err != nil {
		return nil, err
	}
	return &RSFrameDecode{IV: iv}, nil
}

// Name implements Stage.
func (s *RSFrameDecode) Name() string {
	return fmt.Sprintf("rsx%d-decode(%d,%d)", s.IV.Depth, s.IV.Code.N, s.IV.Code.K)
}

// ForWorker implements WorkerLocal.
func (s *RSFrameDecode) ForWorker(w int) Stage {
	return &RSFrameDecode{IV: s.IV, sc: newRSFrameScratch(s.IV)}
}

// Process implements Stage. Accepts batched payloads (any positive
// multiple of FrameN); CorrectedMax is the worst per-codeword correction
// across every chunk in the batch.
func (s *RSFrameDecode) Process(f *Frame) error {
	sc := s.sc
	if sc == nil {
		sc = newRSFrameScratch(s.IV)
	}
	fk, fn := s.IV.FrameK(), s.IV.FrameN()
	if len(f.Data) == 0 || len(f.Data)%fn != 0 {
		return fmt.Errorf("rs: frame length %d, want a positive multiple of %d", len(f.Data), fn)
	}
	w := len(f.Data) / fn
	pb := getBuf(w * fk)
	for i := 0; i < w; i++ {
		bytesToElemsInto(sc.frame, f.Data[i*fn:(i+1)*fn])
		st, err := s.IV.DecodeWithStatsTo(sc.msg, sc.frame, sc.fb)
		if err != nil {
			putBuf(pb)
			return err
		}
		f.Corrected += st.Total
		if st.Max > f.CorrectedMax {
			f.CorrectedMax = st.Max
		}
		elemsToBytesInto(pb.data[i*fk:(i+1)*fk], sc.msg)
	}
	f.Width = w * s.IV.Depth
	f.setPooled(pb)
	return nil
}

// MeteredRSDecode is RSFrameDecode at depth 1 through the metered
// kernel datapath of
// internal/kernels: the same syndrome/BMA/Chien/Forney pipeline, but
// each frame also charges its operation counts to Frame.Counts under the
// chosen machine model, so stage stats accumulate the cycle accounting
// of the paper's Section 3.3.1 methodology across the whole run.
type MeteredRSDecode struct {
	Code *rs.Code
	Mach kernels.Machine
}

// NewMeteredRSDecode wraps the metered decoder kernels as a stage.
func NewMeteredRSDecode(c *rs.Code, mach kernels.Machine) (*MeteredRSDecode, error) {
	if err := requireByteField(c.F, "MeteredRSDecode"); err != nil {
		return nil, err
	}
	return &MeteredRSDecode{Code: c, Mach: mach}, nil
}

// Name implements Stage.
func (s *MeteredRSDecode) Name() string {
	return fmt.Sprintf("rs-decode-metered(%d,%d)", s.Code.N, s.Code.K)
}

// Process implements Stage.
func (s *MeteredRSDecode) Process(f *Frame) error {
	c := s.Code
	recv := bytesToElems(f.Data)
	if len(recv) != c.N {
		return fmt.Errorf("pipeline: received length %d, want %d", len(recv), c.N)
	}
	var m perf.Meter
	defer func() { f.Counts.Add(m.Counts) }()
	synd := kernels.SyndromesRS(c, recv, s.Mach, &m)
	if rs.AllZero(synd) {
		f.Data = f.Data[:c.K]
		return nil
	}
	lambda := kernels.BerlekampMassey(c.F, synd, s.Mach, &m)
	if lambda.Degree() > c.T {
		return fmt.Errorf("pipeline: locator degree %d exceeds t=%d (uncorrectable)", lambda.Degree(), c.T)
	}
	positions := kernels.ChienSearch(c.F, lambda, c.N, s.Mach, &m)
	if len(positions) != lambda.Degree() {
		return fmt.Errorf("pipeline: Chien found %d roots for degree-%d locator (uncorrectable)",
			len(positions), lambda.Degree())
	}
	vals, err := kernels.Forney(c, synd, lambda, positions, s.Mach, &m)
	if err != nil {
		return err
	}
	for i, p := range positions {
		recv[p] ^= vals[i]
	}
	if !rs.AllZero(c.Syndromes(recv)) {
		return fmt.Errorf("pipeline: correction verification failed (uncorrectable word)")
	}
	f.Corrected += len(positions)
	f.Data = elemsToBytes(recv[:c.K])
	return nil
}

// --- BCH ---

// BCHEncode encodes k message bits (one bit per byte, values 0/1) into
// an n-bit codeword.
type BCHEncode struct{ Code *bch.Code }

// NewBCHEncode wraps the BCH encoder as a stage.
func NewBCHEncode(c *bch.Code) *BCHEncode { return &BCHEncode{Code: c} }

// Name implements Stage.
func (s *BCHEncode) Name() string {
	return fmt.Sprintf("bch-encode(%d,%d,%d)", s.Code.N, s.Code.K, s.Code.T)
}

// Process implements Stage. Batched payloads (a positive multiple of K
// bits) encode chunk by chunk.
func (s *BCHEncode) Process(f *Frame) error {
	k := s.Code.K
	if len(f.Data) == 0 || len(f.Data)%k != 0 {
		return fmt.Errorf("bch: message length %d, want a positive multiple of %d", len(f.Data), k)
	}
	w := len(f.Data) / k
	if w == 1 {
		out, err := s.Code.Encode(f.Data)
		if err != nil {
			return err
		}
		f.Data = out
		f.Width = 1
		return nil
	}
	out := make([]byte, 0, w*s.Code.N)
	for i := 0; i < w; i++ {
		cw, err := s.Code.Encode(f.Data[i*k : (i+1)*k])
		if err != nil {
			return err
		}
		out = append(out, cw...)
	}
	f.Data = out
	f.Width = w
	return nil
}

// BCHDecode corrects an n-bit received word into its k message bits.
type BCHDecode struct{ Code *bch.Code }

// NewBCHDecode wraps the BCH decoder as a stage.
func NewBCHDecode(c *bch.Code) *BCHDecode { return &BCHDecode{Code: c} }

// Name implements Stage.
func (s *BCHDecode) Name() string {
	return fmt.Sprintf("bch-decode(%d,%d,%d)", s.Code.N, s.Code.K, s.Code.T)
}

// Process implements Stage. Batched payloads (a positive multiple of N
// bits) decode chunk by chunk; one uncorrectable chunk fails the frame.
func (s *BCHDecode) Process(f *Frame) error {
	n := s.Code.N
	if len(f.Data) == 0 || len(f.Data)%n != 0 {
		return fmt.Errorf("bch: received length %d, want a positive multiple of %d", len(f.Data), n)
	}
	w := len(f.Data) / n
	if w == 1 {
		res, err := s.Code.Decode(f.Data)
		if err != nil {
			return err
		}
		f.Corrected += res.NumErrors
		f.Data = res.Message
		f.Width = 1
		return nil
	}
	out := make([]byte, 0, w*s.Code.K)
	for i := 0; i < w; i++ {
		res, err := s.Code.Decode(f.Data[i*n : (i+1)*n])
		if err != nil {
			return err
		}
		f.Corrected += res.NumErrors
		out = append(out, res.Message...)
	}
	f.Data = out
	f.Width = w
	return nil
}

// --- AES-GCM ---

// gcmNonce derives the 12-byte per-frame nonce from the sequence number:
// a fixed 4-byte label plus the big-endian Seq. Unique per frame within
// a run, and reconstructible on the open side without shipping it in the
// payload.
func gcmNonce(seq uint64) []byte {
	n := make([]byte, 12)
	copy(n, "gfp\x00")
	binary.BigEndian.PutUint64(n[4:], seq)
	return n
}

// SealAEAD encrypts and authenticates the payload with AES-GCM,
// replacing it with ciphertext || 16-byte tag (16 bytes longer). The
// nonce is derived from Frame.Seq.
type SealAEAD struct {
	G *aes.GCM
	// AAD is bound into every frame's tag (may be nil).
	AAD []byte
}

// NewSealAEAD wraps GCM sealing as a stage.
func NewSealAEAD(g *aes.GCM, aad []byte) *SealAEAD { return &SealAEAD{G: g, AAD: aad} }

// Name implements Stage.
func (s *SealAEAD) Name() string { return "gcm-seal" }

// Process implements Stage.
func (s *SealAEAD) Process(f *Frame) error {
	out, err := s.G.Seal(gcmNonce(f.Seq), f.Data, s.AAD)
	if err != nil {
		return err
	}
	f.Data = out
	return nil
}

// OpenAEAD verifies and decrypts a SealAEAD payload, failing the frame
// when authentication fails (e.g. residual errors survived decoding).
type OpenAEAD struct {
	G   *aes.GCM
	AAD []byte
}

// NewOpenAEAD wraps GCM opening as a stage.
func NewOpenAEAD(g *aes.GCM, aad []byte) *OpenAEAD { return &OpenAEAD{G: g, AAD: aad} }

// Name implements Stage.
func (s *OpenAEAD) Name() string { return "gcm-open" }

// Process implements Stage.
func (s *OpenAEAD) Process(f *Frame) error {
	pt, err := s.G.Open(gcmNonce(f.Seq), f.Data, s.AAD)
	if err != nil {
		return err
	}
	f.Data = pt
	return nil
}

// --- Channel corruption (loopback testing) ---

// Corrupt pushes each payload through a channel model, serializing every
// byte as an m-bit symbol (m=8 for RS symbol streams, m=1 for BCH bit
// streams). It implements WorkerLocal: worker w transmits through
// proto.Fork(seed+w), so runs are deterministic for a fixed worker count
// and every worker's error process is independent.
type Corrupt struct {
	proto channel.Forker
	ch    channel.Channel // this instance's private channel
	m     int
	seed  int64
	sc    *corruptScratch // per-worker; nil on the shared prototype
}

// corruptScratch holds a worker's symbol staging and serialized-bit
// buffers. Frame sizes can vary across a run, so transmit grows the
// buffers as needed instead of fixing their size at construction.
type corruptScratch struct {
	in, out []gf.Elem
	bits    []byte
}

// transmit pushes the frame payload through ch and installs a pooled
// result buffer, reusing the scratch across calls.
func (sc *corruptScratch) transmit(f *Frame, ch channel.Channel, m int) {
	n := len(f.Data)
	if cap(sc.in) < n {
		sc.in = make([]gf.Elem, n)
		sc.out = make([]gf.Elem, n)
	}
	if cap(sc.bits) < n*m {
		sc.bits = make([]byte, n*m)
	}
	in, out := sc.in[:n], sc.out[:n]
	bytesToElemsInto(in, f.Data)
	channel.TransmitSymbolsTo(out, ch, in, m, sc.bits)
	pb := getBuf(n)
	elemsToBytesInto(pb.data, out)
	f.setPooled(pb)
}

// NewCorrupt builds the corruption stage from a forkable channel
// prototype and the per-symbol bit width m (1..8).
func NewCorrupt(proto channel.Forker, m int, seed int64) (*Corrupt, error) {
	if m < 1 || m > 8 {
		return nil, fmt.Errorf("pipeline: symbol width %d outside [1,8]", m)
	}
	return &Corrupt{proto: proto, m: m, seed: seed}, nil
}

// Name implements Stage.
func (s *Corrupt) Name() string { return "channel[" + s.proto.Description() + "]" }

// ForWorker implements WorkerLocal.
func (s *Corrupt) ForWorker(w int) Stage {
	return &Corrupt{
		proto: s.proto, ch: s.proto.Fork(s.seed + int64(w)),
		m: s.m, seed: s.seed, sc: new(corruptScratch),
	}
}

// Process implements Stage.
func (s *Corrupt) Process(f *Frame) error {
	ch := s.ch
	if ch == nil {
		// Not running under a pipeline worker (e.g. direct use in a test):
		// fall back to a single fork.
		s.ch = s.proto.Fork(s.seed)
		ch = s.ch
	}
	sc := s.sc
	if sc == nil {
		sc = new(corruptScratch)
	}
	sc.transmit(f, ch, s.m)
	return nil
}

// CorruptTV corrupts frames through a time-varying channel schedule,
// deriving each frame's channel conditions and RNG stream from Frame.Seq
// alone (channel.TimeVarying.FrameChannel). Unlike Corrupt, the result is
// bit-identical for any worker count and interleaving — the determinism
// the adaptive link controller's reproducibility guarantee rests on. The
// shared instance holds no mutable state and is safe across workers; it
// implements WorkerLocal only to give each worker private conversion
// scratch.
type CorruptTV struct {
	TV *channel.TimeVarying
	m  int
	sc *corruptScratch // per-worker; nil on the shared prototype
}

// NewCorruptTV builds the schedule-driven corruption stage with per-symbol
// bit width m (1..8).
func NewCorruptTV(tv *channel.TimeVarying, m int) (*CorruptTV, error) {
	if m < 1 || m > 8 {
		return nil, fmt.Errorf("pipeline: symbol width %d outside [1,8]", m)
	}
	return &CorruptTV{TV: tv, m: m}, nil
}

// Name implements Stage.
func (s *CorruptTV) Name() string { return "channel[" + s.TV.Description() + "]" }

// ForWorker implements WorkerLocal.
func (s *CorruptTV) ForWorker(w int) Stage {
	return &CorruptTV{TV: s.TV, m: s.m, sc: new(corruptScratch)}
}

// Process implements Stage.
func (s *CorruptTV) Process(f *Frame) error {
	ch := s.TV.FrameChannel(f.Seq)
	sc := s.sc
	if sc == nil {
		sc = new(corruptScratch)
	}
	sc.transmit(f, ch, s.m)
	return nil
}
