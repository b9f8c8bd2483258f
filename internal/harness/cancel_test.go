package harness

import (
	"context"
	"errors"
	"testing"

	"crat/internal/core"
	"crat/internal/gpusim"
	"crat/internal/pool"
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
	if _, _, err := s.AnalysisCtx(canceled, p); !pool.IsCancellation(err) {
		t.Fatalf("canceled analysis: err = %v, want cancellation", err)
	}
	a, _, err := s.AnalysisCtx(context.Background(), p)
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
	if _, _, err := s.AnalysisCtx(canceled2, p); err != nil {
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
	if counts["analysis/BROKEN"] != 1 {
		t.Errorf("broken analysis computed %d times, want 1 (errors memoize)", counts["analysis/BROKEN"])
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
	if _, _, err := s.ModeCtx(ctx, p, core.ModeCRAT); !pool.IsCancellation(err) {
		t.Fatalf("mode under dead context: %v", err)
	}
	if _, _, err := s.ModeCtx(context.Background(), p, core.ModeCRAT); err != nil {
		t.Errorf("mode after canceled attempt: %v", err)
	}
}
