package server

import (
	"sync/atomic"

	"repro/internal/perf"
)

// counters are the server-level atomics exported by the stats op.
type counters struct {
	connsAccepted atomic.Int64
	connsActive   atomic.Int64
	requests      atomic.Int64
	responses     atomic.Int64
	rejects       atomic.Int64
	dropped       atomic.Int64
	protoErrors   atomic.Int64
	bytesIn       atomic.Int64
	bytesOut      atomic.Int64
}

// snapshot reads the counters in an order that keeps the request ledger
// consistent under concurrency: the terminal counters (responses,
// rejects, dropped) first, requests last. Every request is counted
// before its terminal outcome, so any snapshot satisfies
// Requests >= Responses + Rejects + Dropped, with equality once the
// server has quiesced.
func (c *counters) snapshot() Counters {
	out := Counters{
		Responses:   c.responses.Load(),
		Rejects:     c.rejects.Load(),
		Dropped:     c.dropped.Load(),
		ProtoErrors: c.protoErrors.Load(),
	}
	out.ConnsAccepted = c.connsAccepted.Load()
	out.ConnsActive = c.connsActive.Load()
	out.BytesIn = c.bytesIn.Load()
	out.BytesOut = c.bytesOut.Load()
	out.Requests = c.requests.Load()
	return out
}

// Counters is the serialized form of the server-level counters. The
// request ledger is exact and disjoint: every framed request terminates
// as exactly one of Responses (an OK reply reached the wire), Rejects
// (an error-status reply reached the wire) or Dropped (the connection
// died before any reply was written), so
//
//	Requests == Responses + Rejects + Dropped
//
// once the server quiesces, and Requests is never below the sum in a
// live snapshot. ProtoErrors counts framing violations, which poison
// the connection before a request is ever counted and therefore sit
// outside the ledger.
type Counters struct {
	ConnsAccepted int64 `json:"conns_accepted"`
	ConnsActive   int64 `json:"conns_active"`
	Requests      int64 `json:"requests"`
	Responses     int64 `json:"responses"`
	Rejects       int64 `json:"rejects"`
	Dropped       int64 `json:"dropped"`
	ProtoErrors   int64 `json:"proto_errors"`
	BytesIn       int64 `json:"bytes_in"`
	BytesOut      int64 `json:"bytes_out"`
}

// ConfigInfo describes the server's codec configuration, so clients
// (gfload) can discover frame sizes instead of guessing them.
type ConfigInfo struct {
	N     int `json:"n"`
	K     int `json:"k"`
	Depth int `json:"depth"`
	// FrameK/FrameN are the RS request payload units; with Batch > 1 a
	// request may carry any positive multiple of the unit up to Batch.
	FrameK     int `json:"frame_k"`
	FrameN     int `json:"frame_n"`
	Batch      int `json:"batch"`
	Workers    int `json:"workers"`
	Queue      int `json:"queue"`
	Window     int `json:"window"`
	MaxPayload int `json:"max_payload"`
	// GHASH names the GCM authenticator's multiply: "hwclmul" (the
	// carry-less multiply instruction) or "table" (Go).
	GHASH string `json:"ghash"`
	// AES names the block encrypt behind the GCM ops: "aesni" (the AES
	// instructions) or "word" (Go).
	AES string `json:"aes"`
	// ECC describes the binary-field ECC service (nil when disabled), so
	// clients can size derive/sign/verify/session requests by discovery.
	ECC *ECCInfo `json:"ecc,omitempty"`
}

// StageSnapshot is one pipeline stage's statistics at snapshot time.
type StageSnapshot struct {
	Name      string           `json:"name"`
	Frames    int64            `json:"frames"`
	Errors    int64            `json:"errors"`
	BytesIn   int64            `json:"bytes_in"`
	BytesOut  int64            `json:"bytes_out"`
	Corrected int64            `json:"corrected"`
	Latency   perf.HistSummary `json:"latency"`
}

// StatsSnapshot is the stats op's response payload (JSON). ListenAddr
// is the actually-bound GFP1 listener address (meaningful when the
// server was started with ":0"), empty before Serve.
type StatsSnapshot struct {
	ListenAddr string           `json:"listen_addr,omitempty"`
	Config     ConfigInfo       `json:"config"`
	Server     Counters         `json:"server"`
	Stages     []StageSnapshot  `json:"stages"`
	Total      perf.HistSummary `json:"total"` // pipeline submit-to-delivery latency
}

// Snapshot captures the live server and pipeline statistics.
func (s *Server) Snapshot() *StatsSnapshot {
	pcfg := s.pl.Config()
	snap := &StatsSnapshot{
		Config: ConfigInfo{
			N: s.cfg.N, K: s.cfg.K, Depth: s.cfg.Depth,
			FrameK: s.iv.FrameK(), FrameN: s.iv.FrameN(), Batch: s.cfg.Batch,
			Workers: pcfg.Workers, Queue: pcfg.Queue,
			Window: s.cfg.Window, MaxPayload: s.cfg.MaxPayload,
			GHASH: s.ghash,
			AES:   s.aes,
		},
		Server: s.ctr.snapshot(),
		Total:  s.pl.Total.Summary(),
	}
	if s.ecc != nil {
		snap.Config.ECC = s.ecc.info()
	}
	if a := s.Addr(); a != nil {
		snap.ListenAddr = a.String()
	}
	for _, st := range s.pl.Stats() {
		snap.Stages = append(snap.Stages, StageSnapshot{
			Name:      st.Name,
			Frames:    st.Frames.Load(),
			Errors:    st.Errors.Load(),
			BytesIn:   st.BytesIn.Load(),
			BytesOut:  st.BytesOut.Load(),
			Corrected: st.Corrected.Load(),
			Latency:   st.Latency.Summary(),
		})
	}
	return snap
}
