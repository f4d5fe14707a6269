// Package pipeline composes the repository's codecs into concurrent,
// batched, backpressured frame-processing pipelines — the scaling layer
// that lets a multi-core host exploit the parallelism the paper's
// processor finds inside one cycle (its 4-way SIMD GF ops) across many
// frames at once.
//
// A Pipeline is an ordered list of Stages. Each stage runs a private
// worker pool (Config.Workers goroutines) fed by a bounded ring, so a
// slow stage exerts backpressure all the way back to Run.Submit instead
// of buffering without limit. Frames are stamped with a sequence number
// on submission and handed to the run's deliver func as soon as their
// last stage returns, in completion order; callers that need submission
// order index the frames by Seq (Pipeline.Drain does).
//
// Stage implementations must be safe for concurrent use by multiple
// workers (the codec adapters in stages.go are — see the concurrency
// notes in packages rs, bch and aes); a stage holding per-worker mutable
// state (e.g. a channel-model RNG) instead implements WorkerLocal to get
// one private instance per worker.
package pipeline

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// Frame is one unit of work flowing through a pipeline. The payload in
// Data is rewritten by each stage (message -> codeword -> corrupted
// codeword -> message ...). A Frame is owned by exactly one stage worker
// at a time, so stages may mutate it freely without locking.
type Frame struct {
	// Seq is the submission sequence number, assigned by Run.Submit:
	// dense from 0 within a run.
	Seq uint64
	// Epoch tags the frame with the configuration epoch it was submitted
	// under (see Run.SubmitTagged). Epoch-aware stage pairs — e.g. the
	// switchable encoder/decoder of package adaptive — use it to apply
	// the same per-epoch configuration on both sides of the channel, so
	// the pipeline can change codes coherently without draining.
	Epoch int
	// Data is the current payload.
	Data []byte
	// Err is the first stage error encountered; once set, later stages
	// skip the frame and it is delivered as-is so the caller can account
	// for it. FailedAt names the stage that set Err.
	Err      error
	FailedAt string
	// Corrected accumulates symbol/bit corrections reported by decode
	// stages. CorrectedMax is the worst per-codeword correction count an
	// interleaved decode stage observed — the frame's distance to the
	// code's correction bound t, which adaptive controllers use as their
	// degradation signal.
	Corrected    int
	CorrectedMax int
	// Tag is opaque caller context carried through the pipeline
	// untouched. Multiplexers (e.g. the codec server) attach their
	// routing state here at submission and read it back at delivery,
	// with no map or lock between the two.
	Tag any
	// Width is the number of codewords packed into this frame's payload.
	// The codec stages set it when they infer the batch width from the
	// payload length; 0 is read as 1 (an unbatched frame). Delivery-side
	// accounting (Pipeline.Sink) is per codeword, so a failed batched
	// frame charges its full width.
	Width int
	// Latency is the submit-to-delivery wall-clock time, set at the sink.
	Latency time.Duration

	submitted time.Time
	// ready is when the frame last became ready for a stage: set at
	// submission and again whenever a stage returns. The next stage's
	// worker charges the gap until it starts to that stage's QueueWait.
	ready time.Time
	// pooled, when non-nil, is the pool-owned buffer backing Data,
	// installed by a buffer-reusing stage and released by Frame.Recycle.
	pooled *pooledBuf
}

// width returns the frame's codeword count for accounting (Width, with
// 0 meaning 1).
func (f *Frame) width() int {
	if f.Width > 0 {
		return f.Width
	}
	return 1
}

// Stage transforms frames. Process is called concurrently from many
// worker goroutines, each call with exclusive ownership of its frame;
// implementations must not keep per-call mutable state on the receiver
// unless they also implement WorkerLocal.
type Stage interface {
	// Name labels the stage in stats and reports.
	Name() string
	// Process transforms f.Data in place (replacing the slice is fine).
	// Returning an error marks the frame failed; the pipeline keeps
	// running.
	Process(f *Frame) error
}

// WorkerLocal is implemented by stages that need private per-worker
// state. At Start, the pipeline calls ForWorker once per worker and
// routes each worker's frames through its own instance.
type WorkerLocal interface {
	Stage
	// ForWorker returns the stage instance worker w (0-based) will use.
	ForWorker(w int) Stage
}

// Func adapts a function to a stateless Stage.
type Func struct {
	Label string
	F     func(f *Frame) error
}

// Name implements Stage.
func (s Func) Name() string { return s.Label }

// Process implements Stage.
func (s Func) Process(f *Frame) error { return s.F(f) }

// Config sizes a pipeline.
type Config struct {
	// Workers is the worker-pool size of every stage. 0 means
	// runtime.GOMAXPROCS(0).
	Workers int
	// Queue is the depth of each stage's input ring, in frames. 0 means
	// 2*Workers. Smaller values tighten backpressure; larger values
	// smooth out latency jitter between stages. Note the unit is
	// frames: a submitter that packs several codewords into each
	// frame's payload (the codec stages infer each frame's width from
	// its length) scales byte-level buffering with its batch.
	Queue int
}

func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.Queue <= 0 {
		c.Queue = 2 * c.Workers
	}
	return c
}

// Pipeline is an immutable description of a stage sequence plus the
// stats the stages accumulate across runs. Build one with New, then
// Start it (possibly several times, though stats are cumulative).
type Pipeline struct {
	cfg    Config
	stages []Stage
	stats  []*StageStats
	// Total observes end-to-end submit-to-delivery latency.
	Total Hist
	// Sink counts delivered frames and codewords (see SinkStats).
	Sink SinkStats
}

// New builds a pipeline from the given stages. The configuration is
// validated here — negative sizes are programming errors, rejected
// up front instead of producing a pipeline that deadlocks or panics
// once started (zero still means "use the default").
func New(cfg Config, stages ...Stage) (*Pipeline, error) {
	if cfg.Workers < 0 {
		return nil, fmt.Errorf("pipeline: negative worker count %d", cfg.Workers)
	}
	if cfg.Queue < 0 {
		return nil, fmt.Errorf("pipeline: negative queue depth %d", cfg.Queue)
	}
	if len(stages) == 0 {
		return nil, errors.New("pipeline: no stages")
	}
	p := &Pipeline{cfg: cfg.withDefaults(), stages: stages}
	for _, s := range stages {
		if s == nil {
			return nil, errors.New("pipeline: nil stage")
		}
		p.stats = append(p.stats, &StageStats{Name: s.Name()})
	}
	return p, nil
}

// Must is New but panics on error.
func Must(cfg Config, stages ...Stage) *Pipeline {
	p, err := New(cfg, stages...)
	if err != nil {
		panic(err)
	}
	return p
}

// Stats returns the per-stage statistics, in stage order. The returned
// values are live: they keep updating while a run is active.
func (p *Pipeline) Stats() []*StageStats { return p.stats }

// Config returns the resolved configuration (defaults applied).
func (p *Pipeline) Config() Config { return p.cfg }

// Run is one execution of a pipeline: submit frames, take each back
// through the deliver func given to Start, Close when done.
type Run struct {
	p    *Pipeline
	in   *frameRing
	seq  atomic.Uint64
	done chan struct{}

	// mu gates submissions against Close: SubmitChecked holds it shared
	// while sending on in, Close holds it exclusively while closing in,
	// so a long-lived concurrent submitter (e.g. a server connection
	// handler) can race Close safely and get ErrClosed instead of a send
	// on a closed channel.
	mu     sync.RWMutex
	closed bool
}

// Start launches the worker pools and returns a Run that hands each
// frame to deliver as soon as its last stage returns, in completion
// order. Stages hand frames downstream through bulk rings, up to
// stageRun frames per dequeue; the last stage's workers take one frame
// per dequeue, so the frames behind a slow one never wait inside its
// worker, and fold each frame's delivery stats before calling deliver.
// deliver runs concurrently on the last stage's workers and should not
// block; it owns the frame from then on. Wait returns once the workers
// have exited after Close.
func (p *Pipeline) Start(deliver func(*Frame)) *Run {
	r := &Run{p: p, in: newFrameRing(p.cfg.Queue), done: make(chan struct{})}
	last := len(p.stages) - 1
	src := r.in
	for i, s := range p.stages[:last] {
		next := newFrameRing(p.cfg.Queue)
		startStage(s, p.stats[i], p.cfg.Workers, stageRun, src, next)
		src = next
	}
	startStage(p.stages[last], p.stats[last], p.cfg.Workers, 1, src, deliverSink{r: r, deliver: deliver})
	return r
}

// startStage spawns the worker pool for one stage and closes dst once
// every worker has drained src. Workers dequeue a run of up to runLen
// frames per ring synchronization and re-enqueue the whole run
// downstream in one bulk put, so handoff cost amortizes over the run.
func startStage(s Stage, st *StageStats, workers, runLen int, src *frameRing, dst frameSink) {
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		inst := s
		if wl, ok := s.(WorkerLocal); ok {
			inst = wl.ForWorker(w)
		}
		go func(inst Stage) {
			defer wg.Done()
			run := make([]*Frame, runLen)
			for {
				n := src.getSome(run)
				if n == 0 {
					return
				}
				for _, f := range run[:n] {
					if f.Err == nil {
						runStage(inst, st, f)
					}
				}
				dst.putAll(run[:n])
				for i := range run[:n] {
					run[i] = nil
				}
			}
		}(inst)
	}
	go func() {
		wg.Wait()
		dst.close()
	}()
}

func runStage(s Stage, st *StageStats, f *Frame) {
	st.BytesIn.Add(int64(len(f.Data)))
	beforeCorrected := f.Corrected
	start := time.Now()
	st.QueueWait.Observe(start.Sub(f.ready))
	err := s.Process(f)
	// The frame is ready for the next stage the moment this one returns:
	// time in the worker's run buffer and any blocked downstream put
	// (backpressure) count as the next stage's queue wait.
	f.ready = time.Now()
	st.Latency.Observe(f.ready.Sub(start))
	st.Frames.Add(1)
	if err != nil {
		f.Err = err
		f.FailedAt = s.Name()
		st.Errors.Add(1)
		return
	}
	st.BytesOut.Add(int64(len(f.Data)))
	st.Codewords.Add(int64(f.width()))
	if d := f.Corrected - beforeCorrected; d > 0 {
		st.Corrected.Add(int64(d))
	}
}

// ErrClosed is returned by SubmitChecked once Close has been called.
var ErrClosed = errors.New("pipeline: run closed")

// Submit injects a payload as the next frame and returns its sequence
// number. It blocks when the first stage's queue is full (backpressure).
// Submit is safe for concurrent use; "submission order" is then the
// order of sequence assignment. Submit must not be called after Close
// (it panics with ErrClosed); callers that cannot order their
// submissions against Close use SubmitChecked.
func (r *Run) Submit(data []byte) uint64 { return r.SubmitTagged(data, 0) }

// SubmitTagged is Submit with an explicit configuration epoch stamped on
// the frame, for pipelines whose stages switch behavior per epoch.
func (r *Run) SubmitTagged(data []byte, epoch int) uint64 {
	seq, err := r.SubmitChecked(data, epoch, nil)
	if err != nil {
		panic(err)
	}
	return seq
}

// SubmitChecked is SubmitTagged for submitters that may race Close — a
// server draining live connections, for example. It returns ErrClosed
// (instead of panicking) once the run's input has been closed, and
// stamps tag (which may be nil) onto Frame.Tag for delivery-time
// routing. Like Submit it blocks while the first stage's queue is full.
func (r *Run) SubmitChecked(data []byte, epoch int, tag any) (uint64, error) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	if r.closed {
		return 0, ErrClosed
	}
	now := time.Now()
	f := framePool.Get().(*Frame)
	*f = Frame{Data: data, Epoch: epoch, Tag: tag, submitted: now, ready: now}
	f.Seq = r.seq.Add(1) - 1
	// Copy Seq before the handoff: once put, the consumer may deliver
	// and Free the frame (returning it to the pool) at any moment.
	seq := f.Seq
	r.in.put(f)
	return seq, nil
}

// Closed reports whether Close has been called on this run. Health
// endpoints use it to tell "draining" from "accepting".
func (r *Run) Closed() bool {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.closed
}

// Close declares the input complete. In-flight frames still drain to
// the deliver func. Close is idempotent and safe to call concurrently
// with SubmitChecked; it blocks until submitters already inside
// SubmitChecked have handed their frame to the first stage.
func (r *Run) Close() {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.closed {
		return
	}
	r.closed = true
	r.in.close()
}

// Wait blocks until the pipeline has fully drained (Close called and
// every frame delivered).
func (r *Run) Wait() { <-r.done }

// finish folds one frame's submit-to-delivery latency into the
// pipeline's Total histogram and its codewords into the Sink counters:
// a failed batched frame charges its full width, not 1.
func (r *Run) finish(f *Frame) {
	f.Latency = time.Since(f.submitted)
	r.p.Total.Observe(f.Latency)
	cw := int64(f.width())
	sk := &r.p.Sink
	sk.Frames.Add(1)
	sk.Codewords.Add(cw)
	if f.Err != nil {
		sk.Failed.Add(1)
		sk.FailedCodewords.Add(cw)
	}
}

// deliverSink is the downstream end of the last stage: its worker
// folds each frame's delivery stats and hands it to the caller as soon
// as the stage returns.
type deliverSink struct {
	r       *Run
	deliver func(*Frame)
}

func (d deliverSink) putAll(fs []*Frame) {
	for _, f := range fs {
		d.r.finish(f)
		d.deliver(f)
	}
}

// close runs once every last-stage worker has exited: the run is
// drained.
func (d deliverSink) close() { close(d.r.done) }

// Drain runs payloads through a fresh run and returns the frames
// indexed by Seq, which is submission order — the batch entry point.
// Frames whose stages failed carry Err; the first such error (by Seq)
// is returned alongside the full frame list.
func (p *Pipeline) Drain(payloads [][]byte) ([]*Frame, error) {
	frames := make([]*Frame, len(payloads))
	r := p.Start(func(f *Frame) { frames[f.Seq] = f })
	for _, d := range payloads {
		r.Submit(d)
	}
	r.Close()
	r.Wait()
	for _, f := range frames {
		if f.Err != nil {
			return frames, fmt.Errorf("pipeline: frame %d failed in %s: %w", f.Seq, f.FailedAt, f.Err)
		}
	}
	return frames, nil
}
