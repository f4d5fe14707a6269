// Package server exposes the repository's codec pipeline as a network
// service: a concurrent TCP server speaking a length-prefixed binary
// protocol whose requests (RS encode/decode, AES-GCM seal/open, stats,
// binary-field ECDH/ECDSA and the secure-session handshake)
// are multiplexed from many connections into one shared
// pipeline.Pipeline and routed back by request id — the system-level
// serving layer over the paper's GF protection engine.
//
// # Wire format
//
// Every message — request or response — is a 24-byte header followed by
// a params section and a payload section, all integers big-endian:
//
//	offset  size  field
//	0       4     magic 0x47465031 ("GFP1")
//	4       1     version (1)
//	5       1     op
//	6       2     status/flags (see below)
//	8       8     request id (echoed verbatim in the response)
//	16      4     params length P (≤ 256)
//	20      4     payload length L (≤ the server's max payload)
//	24      P     params (op-specific, e.g. the 12-byte GCM nonce)
//	24+P    L     payload
//
// The 16-bit field at offset 6 carries the response status code in its
// low 15 bits (0 in requests) and request flags in the high bit:
// FlagTraced marks a request whose params section ends with a
// trace-context extension (see repro/internal/obs/trace). Pre-trace
// clients always sent 0 here and pre-trace servers never read it on
// requests, so the split is wire-compatible in both directions.
//
// Request ids are chosen by the client and only need to be unique among
// that connection's in-flight requests; responses may arrive in any
// order. Error responses carry a non-zero status and a human-readable
// message as their payload.
package server

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"

	"repro/internal/obs/trace"
)

// Protocol constants.
const (
	Magic      = 0x47465031 // "GFP1"
	Version    = 1
	headerSize = 24

	// HeaderSize is the fixed frame-header length, exported for wire
	// accounting by clients and proxies.
	HeaderSize = headerSize

	// MaxParams bounds the params section of any message.
	MaxParams = 256

	// DefaultMaxPayload is the payload-size guard applied when
	// Config.MaxPayload is zero.
	DefaultMaxPayload = 1 << 20

	// NonceSize is the GCM nonce carried in seal/open params.
	NonceSize = 12
)

// Request flag bits, carried in the high bits of the header's
// status/flags field (always 0 in responses and in pre-trace requests).
const (
	// FlagTraced marks a request whose params end with a trace-context
	// extension; the receiver strips it before op-param validation.
	FlagTraced uint16 = 0x8000

	// flagsMask covers every defined flag bit; the rest of the field is
	// the response status.
	flagsMask uint16 = 0x8000
)

// Op identifies the requested codec operation.
type Op uint8

// The protocol ops.
const (
	OpRSEncode Op = 1 // payload: K·depth message bytes -> N·depth codeword bytes
	OpRSDecode Op = 2 // payload: N·depth received bytes -> K·depth corrected message
	OpSeal     Op = 3 // params: 12-byte nonce; payload: plaintext -> ciphertext||tag
	OpOpen     Op = 4 // params: 12-byte nonce; payload: ciphertext||tag -> plaintext
	OpStats    Op = 5 // payload: none -> JSON StatsSnapshot

	// Binary-field ECC ops (see docs/SERVER.md for the exact layouts;
	// fb/ob below are the configured curve's field/order byte widths).
	OpECDHDerive    Op = 6 // payload: peer point 04||x||y (1+2fb) -> shared x (fb)
	OpECDSASign     Op = 7 // payload: digest (1..64B) -> signature r||s (2ob)
	OpECDSAVerify   Op = 8 // payload: point||r||s||digest -> empty (status is the verdict)
	OpSecureSession Op = 9 // payload: client point||challenge -> eph point||nonce||sealed
)

// Idempotent reports whether the op may be transparently retried by a
// proxy after a backend is lost mid-flight. RS encode/decode and stats
// are pure functions of their request bytes — replaying one on another
// backend produces the same answer and mutates nothing. The AES-GCM ops
// are deliberately excluded: the client chose the nonce, and a replayed
// seal would emit a second ciphertext under the same (key, nonce) pair —
// exactly the reuse GCM's security argument forbids — with no way for
// the proxy to prove the first attempt never reached the cipher.
//
// The ECC ops split along the same line. ecdh-derive and ecdsa-verify
// are pure functions of the request. ecdsa-sign is retry-safe only
// because signing is deterministic (RFC 6979 nonces): every backend
// holding the fleet key produces the bit-identical signature for a
// given digest, so a replay cannot leak a second nonce for the same
// message the way a randomized ECDSA signer would. secure-session is
// excluded for the GCM reason in new clothes: each handshake draws a
// fresh ephemeral key, so a replayed request would mint a second
// session the client never learns about. (A backend that *rejects* a
// request without processing it, e.g. with StatusShuttingDown, is safe
// to retry regardless of op; see Status.RetrySafe.)
func (o Op) Idempotent() bool {
	switch o {
	case OpRSEncode, OpRSDecode, OpStats, OpECDHDerive, OpECDSASign, OpECDSAVerify:
		return true
	}
	return false
}

// String implements fmt.Stringer.
func (o Op) String() string {
	switch o {
	case OpRSEncode:
		return "rs-encode"
	case OpRSDecode:
		return "rs-decode"
	case OpSeal:
		return "aes-gcm-seal"
	case OpOpen:
		return "aes-gcm-open"
	case OpStats:
		return "stats"
	case OpECDHDerive:
		return "ecdh-derive"
	case OpECDSASign:
		return "ecdsa-sign"
	case OpECDSAVerify:
		return "ecdsa-verify"
	case OpSecureSession:
		return "secure-session"
	default:
		return fmt.Sprintf("op(%d)", uint8(o))
	}
}

// Status is the response status code.
type Status uint16

// The response status codes.
const (
	StatusOK           Status = 0 // success; payload is the result
	StatusBadRequest   Status = 1 // malformed params or payload for the op
	StatusUnsupported  Status = 2 // unknown op or protocol version
	StatusTooLarge     Status = 3 // declared frame size beyond the guard
	StatusCodecFailed  Status = 4 // codec error (uncorrectable word, auth failure)
	StatusShuttingDown Status = 5 // server draining; request was not processed
	StatusInternal     Status = 6 // server-side invariant failure

	// Statuses originated by a routing front door (gfproxy), never by a
	// backend itself.
	StatusUnavailable Status = 7 // no healthy backend could serve the request
	StatusOverloaded  Status = 8 // per-tenant admission limit exceeded; retry later
)

// RetrySafe reports whether a response with this status guarantees the
// request was never processed, making a retry safe for any op — even the
// non-idempotent ones. A draining backend rejects before touching the
// pipeline, so a proxy can replay the request elsewhere without risking
// nonce reuse.
func (s Status) RetrySafe() bool { return s == StatusShuttingDown }

// String implements fmt.Stringer.
func (s Status) String() string {
	switch s {
	case StatusOK:
		return "ok"
	case StatusBadRequest:
		return "bad-request"
	case StatusUnsupported:
		return "unsupported"
	case StatusTooLarge:
		return "too-large"
	case StatusCodecFailed:
		return "codec-failed"
	case StatusShuttingDown:
		return "shutting-down"
	case StatusInternal:
		return "internal"
	case StatusUnavailable:
		return "unavailable"
	case StatusOverloaded:
		return "overloaded"
	default:
		return fmt.Sprintf("status(%d)", uint16(s))
	}
}

// Message is one decoded protocol frame.
type Message struct {
	Op     Op
	Status Status
	// Flags carries the request flag bits (FlagTraced); it shares the
	// status/flags header field with Status and is 0 in responses.
	Flags   uint16
	ID      uint64
	Params  []byte
	Payload []byte

	// raw is the single buffer readMessage read params‖payload into
	// (nil for messages built in memory); see nonceBody.
	raw []byte
}

// ProtoError is a framing violation that poisons the byte stream: after
// one, the connection cannot be resynchronized and must be closed. It
// wraps the status the server (or proxy) reports, best effort, before
// closing.
type ProtoError struct {
	Status Status
	msg    string
}

func (e *ProtoError) Error() string { return e.msg }

func protoErrorf(st Status, format string, args ...any) error {
	return &ProtoError{Status: st, msg: fmt.Sprintf(format, args...)}
}

// writeMessage serializes m to w. Callers serialize access to w.
func writeMessage(w io.Writer, m *Message) error {
	if len(m.Params) > MaxParams {
		return fmt.Errorf("server: params %dB exceeds %dB", len(m.Params), MaxParams)
	}
	var hdr [headerSize]byte
	binary.BigEndian.PutUint32(hdr[0:], Magic)
	hdr[4] = Version
	hdr[5] = byte(m.Op)
	binary.BigEndian.PutUint16(hdr[6:], uint16(m.Status)|(m.Flags&flagsMask))
	binary.BigEndian.PutUint64(hdr[8:], m.ID)
	binary.BigEndian.PutUint32(hdr[16:], uint32(len(m.Params)))
	binary.BigEndian.PutUint32(hdr[20:], uint32(len(m.Payload)))
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	if _, err := w.Write(m.Params); err != nil {
		return err
	}
	_, err := w.Write(m.Payload)
	return err
}

// readMessage reads one message from r, enforcing the magic/version and
// the params/payload size guards. Size and framing violations come back
// as *ProtoError; the caller should report the status and drop the
// connection, since the stream position is lost. A clean EOF before the
// first header byte is io.EOF; EOF mid-message is ErrUnexpectedEOF.
func readMessage(r io.Reader, maxPayload int) (*Message, error) {
	var hdr [headerSize]byte
	if _, err := io.ReadFull(r, hdr[:1]); err != nil {
		return nil, err
	}
	if _, err := io.ReadFull(r, hdr[1:]); err != nil {
		if errors.Is(err, io.EOF) {
			err = io.ErrUnexpectedEOF
		}
		return nil, err
	}
	if got := binary.BigEndian.Uint32(hdr[0:]); got != Magic {
		return nil, protoErrorf(StatusBadRequest, "bad magic %#08x", got)
	}
	if hdr[4] != Version {
		return nil, protoErrorf(StatusUnsupported, "protocol version %d, want %d", hdr[4], Version)
	}
	sf := binary.BigEndian.Uint16(hdr[6:])
	m := &Message{
		Op:     Op(hdr[5]),
		Status: Status(sf &^ flagsMask),
		Flags:  sf & flagsMask,
		ID:     binary.BigEndian.Uint64(hdr[8:]),
	}
	paramsLen := binary.BigEndian.Uint32(hdr[16:])
	payloadLen := binary.BigEndian.Uint32(hdr[20:])
	if paramsLen > MaxParams {
		return nil, protoErrorf(StatusTooLarge, "params %dB exceeds %dB", paramsLen, MaxParams)
	}
	if int64(payloadLen) > int64(maxPayload) {
		return nil, protoErrorf(StatusTooLarge, "payload %dB exceeds %dB guard", payloadLen, maxPayload)
	}
	buf := make([]byte, paramsLen+payloadLen)
	if _, err := io.ReadFull(r, buf); err != nil {
		if errors.Is(err, io.EOF) {
			err = io.ErrUnexpectedEOF
		}
		return nil, err
	}
	m.Params = buf[:paramsLen:paramsLen]
	m.Payload = buf[paramsLen:]
	m.raw = buf
	return m, nil
}

// ReadRequest reads one frame from r under the given payload guard. It
// is the exported face of the frame reader for GFP1 intermediaries
// (gfproxy) that terminate the protocol without being a Server; the
// error contract matches readMessage.
func ReadRequest(r io.Reader, maxPayload int) (*Message, error) {
	return readMessage(r, maxPayload)
}

// WriteResponse serializes m to w. Callers serialize access to w.
func WriteResponse(w io.Writer, m *Message) error {
	return writeMessage(w, m)
}

// AttachTrace appends tc's params trace-context extension to m and sets
// FlagTraced. Append semantics apply: a decoded message's params slice
// is capacity-pinned to its length, so the extension lands in a fresh
// backing array and never clobbers adjacent payload bytes.
func AttachTrace(m *Message, tc trace.Context) {
	m.Params = tc.Append(m.Params)
	m.Flags |= FlagTraced
}
