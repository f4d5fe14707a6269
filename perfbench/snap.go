package main

import (
	"bufio"
	"math"
	"os"
	"runtime/metrics"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/cluster"
	"repro/internal/obs"
	"repro/internal/server"
)

// dispatchStage is the label of the backends' single pipeline stage.
const dispatchStage = "codec-dispatch"

// histSum is the part of a program histogram the benchmark reads: count
// and sum. Quantiles from the histograms are bucket edges, so every
// percentile the benchmark reports comes from its own raw samples.
type histSum struct {
	Count int64 `json:"count"`
	SumNs int64 `json:"sum_ns"`
}

func (h histSum) sub(o histSum) histSum { return histSum{h.Count - o.Count, h.SumNs - o.SumNs} }

func (h histSum) add(o histSum) histSum { return histSum{h.Count + o.Count, h.SumNs + o.SumNs} }

// meanUs is the mean sample in µs (0 without samples).
func (h histSum) meanUs() float64 {
	if h.Count == 0 {
		return 0
	}
	return float64(h.SumNs) / float64(h.Count) / 1e3
}

func readHist(reg *obs.Registry, name string, labels ...obs.Label) histSum {
	s, _ := reg.HistValue(name, labels...)
	return histSum{s.Count, s.SumNs}
}

// runtimeSnap is the process's Go runtime and OS accounting at one
// instant.
type runtimeSnap struct {
	CPUNs       int64   `json:"cpu_ns"` // getrusage user+sys
	AllocBytes  uint64  `json:"alloc_bytes"`
	GCCycles    uint64  `json:"gc_cycles"`
	GCCPUSec    float64 `json:"gc_cpu_s"`
	TotalCPUSec float64 `json:"total_cpu_s"`
	IdleCPUSec  float64 `json:"idle_cpu_s"`
}

var runtimeSamples = []string{
	"/gc/heap/allocs:bytes",
	"/gc/cycles/total:gc-cycles",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
	"/cpu/classes/idle:cpu-seconds",
}

func readRuntime() runtimeSnap {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	s := runtimeSnap{CPUNs: ru.Utime.Nano() + ru.Stime.Nano()}
	ms := make([]metrics.Sample, len(runtimeSamples))
	for i, name := range runtimeSamples {
		ms[i].Name = name
	}
	metrics.Read(ms)
	s.AllocBytes = ms[0].Value.Uint64()
	s.GCCycles = ms[1].Value.Uint64()
	s.GCCPUSec = ms[2].Value.Float64()
	s.TotalCPUSec = ms[3].Value.Float64()
	s.IdleCPUSec = ms[4].Value.Float64()
	return s
}

// hostCPU reads the machine's stolen and total CPU time (jiffies) from
// /proc/stat: CPU a hypervisor gave to other guests shows as steal.
func hostCPU() (steal, total int64) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	fields := strings.Fields(line)
	for i := 1; i < len(fields) && i <= 8; i++ {
		v, _ := strconv.ParseInt(fields[i], 10, 64)
		total += v
		if i == 8 {
			steal = v
		}
	}
	return steal, total
}

// peakRSSMB reads the process's peak resident set (VmHWM) in MB; NaN,
// which fails the run, when it cannot be read.
func peakRSSMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return math.NaN()
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return math.NaN()
			}
			return kb / 1024
		}
	}
	return math.NaN()
}

// stackSnap is the stack's public counters and histogram sums at one
// phase boundary, read through the same functions gfserved's and
// gfproxy's admin planes serve.
type stackSnap struct {
	At       time.Time             `json:"at"`
	Proxy    cluster.ProxyCounters `json:"proxy"`
	Forwards []int64               `json:"forwards"` // per backend
	Backends []server.Counters     `json:"backends"`
	ProxyOp  map[string]histSum    `json:"proxy_op"`  // gfp_proxy_op_latency_seconds
	ServerOp map[string]histSum    `json:"server_op"` // gfp_server_op_latency_seconds, backends summed
	Pipeline histSum               `json:"pipeline"`  // gfp_pipeline_latency_seconds (submit to deliver)
	Stage    histSum               `json:"stage"`     // the dispatch stage's Process latency
	// Corrected is the dispatch stage's corrected-symbol count.
	Corrected int64 `json:"corrected"`
	// Metrics is every registry's full gather (traced run only), keyed
	// proxy, backend0, backend1.
	Metrics map[string][]obs.Metric `json:"metrics,omitempty"`
}

// snap reads the stack. gather adds the full registry dumps.
func (st *stack) snap(gather bool) stackSnap {
	s := stackSnap{At: time.Now(), ProxyOp: map[string]histSum{}, ServerOp: map[string]histSum{}}
	sz := st.proxy.Statsz()
	s.Proxy = sz.Proxy
	for _, b := range sz.Fleet.Backends {
		s.Forwards = append(s.Forwards, b.Forwards)
	}
	for op := server.Op(1); op <= server.OpSecureSession; op++ {
		l := obs.L("op", op.String())
		s.ProxyOp[op.String()] = readHist(st.preg, "gfp_proxy_op_latency_seconds", l)
		for _, reg := range st.regs {
			s.ServerOp[op.String()] = s.ServerOp[op.String()].add(readHist(reg, "gfp_server_op_latency_seconds", l))
		}
	}
	for i, srv := range st.servers {
		reg := st.regs[i]
		s.Backends = append(s.Backends, srv.Snapshot().Server)
		s.Pipeline = s.Pipeline.add(readHist(reg, "gfp_pipeline_latency_seconds"))
		stage := obs.L("stage", dispatchStage)
		s.Stage = s.Stage.add(readHist(reg, "gfp_pipeline_stage_latency_seconds", stage))
		c, _ := reg.Value("gfp_pipeline_stage_corrected_total", stage)
		s.Corrected += int64(c)
	}
	if gather {
		s.Metrics = map[string][]obs.Metric{"proxy": st.preg.Gather()}
		for i, reg := range st.regs {
			s.Metrics["backend"+strconv.Itoa(i)] = reg.Gather()
		}
	}
	return s
}

// connsAccepted sums the backends' accepted connections.
func (s stackSnap) connsAccepted() int64 {
	n := int64(0)
	for _, b := range s.Backends {
		n += b.ConnsAccepted
	}
	return n
}

// allOps sums a per-op histogram map.
func allOps(m map[string]histSum) histSum {
	var t histSum
	for _, h := range m {
		t = t.add(h)
	}
	return t
}
