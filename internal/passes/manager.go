package passes

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"crat/internal/ptx"
)

// Event records one pass execution: wall time and the IR-size delta.
type Event struct {
	Pass        string
	Wall        time.Duration
	InstsBefore int
	InstsAfter  int
	Changed     bool // the pass invalidated analyses (IR version advanced)
}

// Manager runs pass pipelines with instrumentation. The zero value is
// usable; hooks are optional.
type Manager struct {
	// VerifyEach runs ptx.Verify on the kernel after every pass and
	// fails fast with the offending pass named.
	VerifyEach bool
	// DumpAfter, when set, receives the kernel after every pass (cratc
	// -dump-after filters by name inside the hook).
	DumpAfter func(pass string, k *ptx.Kernel)

	// Events accumulates one entry per executed pass, in order.
	Events []Event
}

// Run executes ps in order against am's kernel. Pass Run errors are
// returned unwrapped (callers match on sentinel errors like
// regalloc.ErrInfeasible); verification failures already name the pass via
// ptx.Verify's stage argument.
func (m *Manager) Run(am *AnalysisManager, ps ...Pass) error {
	for _, p := range ps {
		eff := p
		if gw := globalWrap(); gw != nil {
			eff = gw(eff)
		}
		instsBefore := len(am.Kernel().Insts)
		verBefore := am.Version()
		if err := am.Require(p.Requires()...); err != nil {
			return err
		}
		start := time.Now()
		err := eff.Run(am.Kernel(), am)
		wall := time.Since(start)
		if err != nil {
			return err
		}
		am.Invalidate(p.Invalidates()...)
		ev := Event{
			Pass:        p.Name(),
			Wall:        wall,
			InstsBefore: instsBefore,
			InstsAfter:  len(am.Kernel().Insts),
			Changed:     am.Version() != verBefore,
		}
		m.Events = append(m.Events, ev)
		recordTiming(ev)
		if m.VerifyEach {
			if verr := ptx.Verify(am.Kernel(), p.Name()); verr != nil {
				return fmt.Errorf("verify after pass %q: %w", p.Name(), verr)
			}
		}
		if m.DumpAfter != nil {
			m.DumpAfter(p.Name(), am.Kernel())
		}
	}
	return nil
}

// globalWrapHook is the process-wide pass decorator tests install to
// observe or perturb passes without production code carrying test-only
// mutation points (the replacement for the old regalloc.MutateForTest).
var (
	globalWrapMu   sync.Mutex
	globalWrapHook func(Pass) Pass
)

// SetGlobalWrap installs (or, with nil, removes) a decorator applied to
// every pass run by every Manager in the process. Test-only; callers must
// restore the previous value.
func SetGlobalWrap(w func(Pass) Pass) {
	globalWrapMu.Lock()
	globalWrapHook = w
	globalWrapMu.Unlock()
}

func globalWrap() func(Pass) Pass {
	globalWrapMu.Lock()
	defer globalWrapMu.Unlock()
	return globalWrapHook
}

// Timing aggregates executions of one pass across the process.
type Timing struct {
	Pass       string
	Runs       int
	Wall       time.Duration
	InstsDelta int // cumulative instruction-count change (after - before)
}

var (
	timingsMu sync.Mutex
	timings   = map[string]*Timing{}
)

func recordTiming(ev Event) {
	timingsMu.Lock()
	t := timings[ev.Pass]
	if t == nil {
		t = &Timing{Pass: ev.Pass}
		timings[ev.Pass] = t
	}
	t.Runs++
	t.Wall += ev.Wall
	t.InstsDelta += ev.InstsAfter - ev.InstsBefore
	timingsMu.Unlock()
}

// Timings returns a snapshot of the per-pass aggregates, sorted by pass
// name for deterministic rendering.
func Timings() []Timing {
	timingsMu.Lock()
	out := make([]Timing, 0, len(timings))
	for _, t := range timings {
		out = append(out, *t)
	}
	timingsMu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].Pass < out[j].Pass })
	return out
}
