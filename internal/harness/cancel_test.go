package harness

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"

	"crat/internal/core"
	"crat/internal/gpusim"
	"crat/internal/pool"
	"crat/internal/workloads"
)

// TestSessionAnalysisRetriesAfterCancellation drives the same property
// through the real Session API: an Analysis aborted by a dead context is
// retried by the next caller, while a deterministic failure stays memoized.
func TestSessionAnalysisRetriesAfterCancellation(t *testing.T) {
	s, err := NewSession(gpusim.FermiConfig())
	if err != nil {
		t.Fatal(err)
	}
	p := tinyProfile()

	canceled, cancel := context.WithCancel(context.Background())
	cancel()
	s.SetContext(canceled)
	if _, _, err := s.Analysis(p); !pool.IsCancellation(err) {
		t.Fatalf("canceled analysis: err = %v, want cancellation", err)
	}
	s.SetContext(nil)
	a, _, err := s.Analysis(p)
	if err != nil {
		t.Fatalf("analysis after canceled attempt: %v", err)
	}
	if a.OptTLP < 1 {
		t.Errorf("OptTLP = %d after retry", a.OptTLP)
	}
	// The live-context result is now memoized: a later canceled caller
	// still gets it (memoized hits never consult the context).
	canceled2, cancel2 := context.WithCancel(context.Background())
	cancel2()
	s.SetContext(canceled2)
	if _, _, err := s.Analysis(p); err != nil {
		t.Errorf("memoized analysis under dead context: %v", err)
	}
}

// TestSessionModeMemoizesSimFault: a structured simulator fault (not a
// cancellation) is deterministic and must memoize — exactly one compute.
func TestSessionModeMemoizesSimFault(t *testing.T) {
	s, err := NewSession(gpusim.FermiConfig())
	if err != nil {
		t.Fatal(err)
	}
	bad := tinyProfile()
	bad.Abbr = "BROKEN"
	s.apps.Do(context.Background(), bad.Abbr, func() (core.App, error) { return brokenApp(), nil })

	_, _, err1 := s.Mode(bad, core.ModeMaxTLP)
	if err1 == nil {
		t.Fatal("broken app simulated cleanly")
	}
	if pool.IsCancellation(err1) {
		t.Fatalf("exec fault misclassified as cancellation: %v", err1)
	}
	_, _, err2 := s.Mode(bad, core.ModeMaxTLP)
	if !errors.Is(err2, err1) && err1.Error() != err2.Error() {
		t.Errorf("memoized error differs: %v vs %v", err1, err2)
	}
	counts := s.computeCounts()
	if len(counts) == 0 {
		t.Fatal("the broken app simulated nothing")
	}
	for key, n := range counts {
		if n != 1 {
			t.Errorf("broken launch %s simulated %d times, want 1 (errors memoize)", key, n)
		}
	}
}

// TestSessionTimeoutSurfacesStructuredFault: an expiring deadline must
// surface as a gpusim deadline fault (errors.Is DeadlineExceeded), and the
// session must recover once the pressure is lifted.
func TestSessionTimeoutSurfacesStructuredFault(t *testing.T) {
	s, err := NewSession(gpusim.FermiConfig())
	if err != nil {
		t.Fatal(err)
	}
	p := tinyProfile()
	ctx, cancel := context.WithCancel(context.Background())
	cancel() // immediate: the profiling sweep must not start
	s.SetContext(ctx)
	if _, _, err := s.Mode(p, core.ModeCRAT); !pool.IsCancellation(err) {
		t.Fatalf("mode under dead context: %v", err)
	}
	s.SetContext(nil)
	if _, _, err := s.Mode(p, core.ModeCRAT); err != nil {
		t.Errorf("mode after canceled attempt: %v", err)
	}
}

// TestRunnersObserveSessionContext: the simulations a figure runner starts
// itself, past the analysis and mode caches, run under the session
// context. The runner's first app is a tiny kernel whose Setup cancels that
// context once the analysis and mode caches are seeded, so the runner's
// first own simulation must end in a cancellation fault instead of running
// to completion.
func TestRunnersObserveSessionContext(t *testing.T) {
	first := workloads.Sensitive()[0].Abbr
	for _, tc := range []struct {
		id   string
		abbr string // the runner's first app
		run  func(*Session) (*Table, error)
	}{
		{"fig8", "FDTD", (*Session).Figure8},
		{"fig20", first, (*Session).Figure20},
		{"overhead", first, (*Session).Overhead},
		{"abl-sched", "CFD", (*Session).AblationScheduler},
		{"abl-spillcost", "CFD", (*Session).AblationSpillCost},
		{"abl-split", "CFD", (*Session).AblationSubstackSplit},
		{"abl-tpsc", "CFD", (*Session).AblationTPSC},
		{"abl-bypass", "CFD", (*Session).AblationBypass},
	} {
		t.Run(tc.id, func(t *testing.T) {
			s, err := NewSession(gpusim.FermiConfig())
			if err != nil {
				t.Fatal(err)
			}
			s.SetWorkers(1)
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			var armed atomic.Bool
			app := tinyProfile().App()
			setup := app.Setup
			app.Setup = func(mem *gpusim.Memory) []uint64 {
				if armed.Load() {
					cancel()
				}
				return setup(mem)
			}
			p, _ := workloads.ByAbbr(tc.abbr)
			s.apps.Do(context.Background(), p.Abbr, func() (core.App, error) { return app, nil })
			// Seed the analysis and every mode the runners read, then drop
			// their simulations so the runner's own launches miss the memo.
			if _, err := s.Speedup(p, core.ModeCRAT); err != nil {
				t.Fatal(err)
			}
			if _, _, err := s.Mode(p, core.ModeCRATLocal); err != nil {
				t.Fatal(err)
			}
			s.sims = pool.NewMemo[string, gpusim.Stats]()
			armed.Store(true)
			s.SetContext(ctx)

			_, err = tc.run(s)
			for _, rec := range s.Faults {
				if err == nil && rec.Experiment == tc.id && rec.App == p.Abbr {
					err = rec.Err
				}
			}
			var fault *gpusim.Fault
			if !errors.As(err, &fault) || fault.Kind != gpusim.FaultCanceled {
				t.Errorf("%s on %s: got %v, want a canceled simulator fault", tc.id, p.Abbr, err)
			}
		})
	}
}
