package gf

import (
	"sort"
	"sync"
	"sync/atomic"
)

// Kernel-tier accounting: every exported bulk operation records one hit
// against the tier that actually served it — the software analogue of
// counting which hardware datapath a GF instruction was issued to. The
// counters are process-wide so a metrics registry can report how much
// of the workload ran on each tier without threading a registry into
// every codec. Alongside the counters, each field's per-op binding is
// published for the observability plane.

var tierCalls [NumTiers]atomic.Int64

// hit records one bulk-kernel invocation, served by the table tier when
// table is set and by scalar otherwise, and returns table.
func hit(table bool) bool {
	if table {
		tierCalls[TierTable].Add(1)
	} else {
		tierCalls[TierScalar].Add(1)
	}
	return table
}

// KernelCalls returns the process-wide cumulative number of bulk-kernel
// invocations served by each tier, indexed by TierID (see TierNames).
func KernelCalls() [NumTiers]int64 {
	var out [NumTiers]int64
	for i := range out {
		out[i] = tierCalls[i].Load()
	}
	return out
}

// TierSelection is the binding for one (Field, Op): the tier that
// serves Field.Kernels calls while the scalar force is off. It does not
// depend on input length, so Below == Above and Crossover is always 0;
// the shape is kept for the observability consumers that print it.
type TierSelection struct {
	Field     string `json:"field"`
	Op        string `json:"op"`
	Below     string `json:"below"`
	Above     string `json:"above"`
	Crossover int    `json:"crossover"`
}

var (
	selMu     sync.Mutex
	selShapes = map[uint64]bool{} // m<<32 | poly of every published shape
	selRows   []TierSelection
)

// selectionOps names the ops a field's binding covers, as Selections
// reports them.
var selectionOps = [...]string{"mulconst", "mulconstadd", "eval", "syndrome", "syndromebit", "chien"}

// publishSelections records the binding's rows for k's field shape, once
// per (m, poly) however many Field values alias it.
func publishSelections(k *Kernels) {
	key := uint64(k.f.m)<<32 | uint64(k.f.poly)
	selMu.Lock()
	defer selMu.Unlock()
	if selShapes[key] {
		return
	}
	selShapes[key] = true
	t := k.Tier()
	for _, op := range selectionOps {
		selRows = append(selRows, TierSelection{Field: k.f.String(), Op: op, Below: t, Above: t})
	}
}

// Selections returns the binding of every field shape whose
// kernels were built so far in this process, sorted by field then op.
// Kernels build lazily on first use, so the list grows as fields come
// into play.
func Selections() []TierSelection {
	selMu.Lock()
	out := append([]TierSelection(nil), selRows...)
	selMu.Unlock()
	sort.Slice(out, func(i, j int) bool {
		if out[i].Field != out[j].Field {
			return out[i].Field < out[j].Field
		}
		return out[i].Op < out[j].Op
	})
	return out
}
