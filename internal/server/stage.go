package server

import (
	crand "crypto/rand"
	"fmt"
	"time"

	"repro/internal/aes"
	"repro/internal/ecc"
	"repro/internal/pipeline"
)

// dispatchStage is the single stage of the server's shared pipeline: it
// routes each frame to the codec op encoded in Frame.Epoch. Multiplexing
// every op through one stage (instead of one pipeline per op) keeps a
// single worker pool hot regardless of the op mix.
//
// It implements pipeline.WorkerLocal so each worker gets private RS
// scratch (the underlying RS stages are WorkerLocal) and its own clone
// of the ECC engine; the GCM instance is immutable after construction
// and shared, as are the eccService counters (atomics).
type dispatchStage struct {
	enc, dec pipeline.Stage
	gcm      *aes.GCM
	aad      []byte
	ecc      *eccService // nil when the ECC ops are disabled
	eccEng   *ecc.Engine // this worker's engine clone
}

// dispatchStageName labels the stage in metrics and trace spans.
const dispatchStageName = "codec-dispatch"

// Name implements pipeline.Stage.
func (d *dispatchStage) Name() string { return dispatchStageName }

// ForWorker implements pipeline.WorkerLocal.
func (d *dispatchStage) ForWorker(w int) pipeline.Stage {
	cp := *d
	if wl, ok := d.enc.(pipeline.WorkerLocal); ok {
		cp.enc = wl.ForWorker(w)
	}
	if wl, ok := d.dec.(pipeline.WorkerLocal); ok {
		cp.dec = wl.ForWorker(w)
	}
	if d.ecc != nil {
		cp.eccEng = d.ecc.eng.Clone()
	}
	return &cp
}

// Process implements pipeline.Stage. Seal/open frames carry nonce‖body
// (the nonce is client-chosen so the peer can reconstruct it; the
// server is a codec, not a key manager — nonce uniqueness is the
// client's contract, as with any GCM API). Both run in place over the
// body: open decrypts into it (after the tag verifies) without
// allocating; seal encrypts into it and moves to a new array only when
// the frame has no spare capacity for the tag.
func (d *dispatchStage) Process(f *pipeline.Frame) error {
	if pr := f.Tag.(*pendingReq); pr.tc.Sampled {
		pr.started = time.Now() // the stage span's queue-wait/service split
	}
	switch Op(f.Epoch) {
	case OpRSEncode:
		return d.enc.Process(f)
	case OpRSDecode:
		return d.dec.Process(f)
	case OpSeal:
		body := f.Data[NonceSize:]
		out, err := d.gcm.SealTo(body[:0], f.Data[:NonceSize], body, d.aad)
		if err != nil {
			return err
		}
		f.Data = out
		return nil
	case OpOpen:
		body := f.Data[NonceSize:]
		out, err := d.gcm.OpenTo(body[:0], f.Data[:NonceSize], body, d.aad)
		if err != nil {
			return err
		}
		f.Data = out
		return nil
	case OpECDHDerive, OpECDSASign, OpECDSAVerify, OpSecureSession:
		if d.eccEng == nil {
			return fmt.Errorf("server: ecc op %v with ecc disabled", Op(f.Epoch))
		}
		return d.processECC(f)
	default:
		return fmt.Errorf("server: unroutable op %d", f.Epoch)
	}
}

// processECC runs one ECC frame on this worker's engine clone. The
// derive/sign paths append into f.Data[:0]: the engine fully consumes
// its input (point parse, digest absorption) before the first output
// byte is written, so reusing the frame's pooled buffer is safe and
// keeps the steady-state request allocation-free at the engine layer.
func (d *dispatchStage) processECC(f *pipeline.Frame) error {
	svc, e := d.ecc, d.eccEng
	switch Op(f.Epoch) {
	case OpECDHDerive:
		start := time.Now()
		out, err := e.Derive(f.Data[:0], f.Data)
		if err != nil {
			svc.failures.Add(1)
			return err
		}
		svc.deriveLat.Observe(time.Since(start))
		svc.derives.Add(1)
		f.Data = out
		return nil
	case OpECDSASign:
		start := time.Now()
		out, err := e.SignAppend(f.Data[:0], f.Data)
		if err != nil {
			svc.failures.Add(1)
			return err
		}
		svc.signLat.Observe(time.Since(start))
		svc.signs.Add(1)
		f.Data = out
		return nil
	case OpECDSAVerify:
		pb, ob := e.PointBytes(), e.OrderBytes()
		pub := f.Data[:pb]
		sig := f.Data[pb : pb+2*ob]
		digest := f.Data[pb+2*ob:]
		if err := e.VerifyWire(pub, sig, digest); err != nil {
			svc.failures.Add(1)
			return err
		}
		svc.verifies.Add(1)
		f.Data = f.Data[:0] // the OK status is the verdict
		return nil
	default: // OpSecureSession
		pb := e.PointBytes()
		out, err := e.SecureSession(crand.Reader, f.Data[:0], f.Data[:pb], f.Data[pb:])
		if err != nil {
			svc.failures.Add(1)
			return err
		}
		svc.sessions.Add(1)
		f.Data = out
		return nil
	}
}
