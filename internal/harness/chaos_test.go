package harness

import (
	"context"
	"fmt"
	"math/rand"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"

	"crat/internal/checkpoint"
	"crat/internal/core"
	"crat/internal/gpusim"
	"crat/internal/regalloc"
	"crat/internal/workloads"
)

// chaosSweep renders the full app x mode comparison through the parallel
// forApps runner — the same shape as the headline figures — so a chaos
// round exercises analyses, mode evaluations, speedups, emit ordering,
// and fault rows all at once. The scheduler ablation follows: a runner
// whose own launches (under LRR) no mode shares.
func chaosSweep(s *Session, apps []workloads.Profile) string {
	tab := &Table{
		ID:      "chaos",
		Title:   "chaos sweep",
		Columns: []string{"app", "OptTLP", "MaxTLP", "OptTLPc", "CRATc", "CRAT-speedup"},
	}
	s.forApps(tab, apps, func(p workloads.Profile) (func(), error) {
		a, _, err := s.Analysis(p)
		if err != nil {
			return nil, err
		}
		base, _, err := s.Mode(p, core.ModeOptTLP)
		if err != nil {
			return nil, err
		}
		crat, _, err := s.Mode(p, core.ModeCRAT)
		if err != nil {
			return nil, err
		}
		sp, err := s.Speedup(p, core.ModeCRAT)
		if err != nil {
			return nil, err
		}
		return func() {
			tab.AddRow(p.Abbr, fmt.Sprint(a.OptTLP), fmt.Sprint(a.MaxTLP),
				fmt.Sprint(base.Cycles), fmt.Sprint(crat.Cycles), f(sp))
		}, nil
	})
	var sb strings.Builder
	tab.Render(&sb)
	s.ablationScheduler(apps).Render(&sb)
	return sb.String()
}

// TestChaosResumeByteIdentical is the durability tentpole's end-to-end
// proof: a parallel sweep is canceled at random points across several
// rounds, each round resuming the previous round's checkpoint; the final
// uninterrupted resume must render byte-identically to a serial
// never-interrupted run, must not re-simulate any checkpointed key, and
// must leak no goroutines.
func TestChaosResumeByteIdentical(t *testing.T) {
	apps := concApps()

	// Golden: serial, no checkpoint, never interrupted.
	golden, err := NewSession(gpusim.FermiConfig())
	if err != nil {
		t.Fatal(err)
	}
	golden.SetWorkers(1)
	want := chaosSweep(golden, apps)
	if strings.Contains(want, "ERROR") {
		t.Fatalf("golden run degraded:\n%s", want)
	}
	lrrKeys := make(map[string]bool)
	lrrArch := golden.Arch
	lrrArch.Scheduler = gpusim.SchedLRR
	for _, p := range apps {
		a, _, _ := golden.Analysis(p)
		app := golden.App(p)
		alloc, err := regalloc.Allocate(app.Kernel, regalloc.Options{Regs: a.DefaultReg})
		if err != nil {
			t.Fatal(err)
		}
		key, err := simKey(app, lrrArch, alloc.Kernel, alloc.UsedRegs, a.OptTLP)
		if err != nil {
			t.Fatal(err)
		}
		lrrKeys[key] = true
	}

	dir := t.TempDir()
	baseGoroutines := runtime.NumGoroutine()
	rng := rand.New(rand.NewSource(7)) // deterministic chaos schedule

	key := golden.ConfigHash()
	var preKeys []string
	for round := 0; round < 4; round++ {
		st, err := checkpoint.Open(filepath.Join(dir, "fermi"), key, "chaos", true)
		if err != nil {
			t.Fatalf("round %d: resume: %v", round, err)
		}
		s, err := NewSession(gpusim.FermiConfig())
		if err != nil {
			t.Fatal(err)
		}
		s.SetWorkers(4)
		s.SetCheckpoint(st)
		ctx, cancel := context.WithCancel(context.Background())
		s.SetContext(ctx)

		// Cancel at a random point mid-sweep; the round's table will carry
		// fault rows, but everything finished before the cut is journaled.
		delay := time.Duration(10+rng.Intn(400)) * time.Millisecond
		done := make(chan string, 1)
		go func() { done <- chaosSweep(s, apps) }()
		time.Sleep(delay)
		cancel()
		<-done

		if tmps, _ := filepath.Glob(filepath.Join(dir, "fermi", "*.tmp")); len(tmps) != 0 {
			t.Fatalf("round %d left partial checkpoint files: %v", round, tmps)
		}
		t.Logf("round %d: canceled after %v, %d result(s) persisted", round, delay, st.Count())
	}

	// What survived the chaos is what the final run must not recompute.
	st, err := checkpoint.Open(filepath.Join(dir, "fermi"), key, "chaos", true)
	if err != nil {
		t.Fatalf("final resume: %v", err)
	}
	preKeys = st.Keys()
	final, err := NewSession(gpusim.FermiConfig())
	if err != nil {
		t.Fatal(err)
	}
	final.SetWorkers(4)
	final.SetCheckpoint(st)
	got := chaosSweep(final, apps)

	if got != want {
		t.Errorf("resumed sweep is not byte-identical to the serial run:\n--- serial ---\n%s--- resumed ---\n%s", want, got)
	}
	counts := final.computeCounts()
	for _, k := range preKeys {
		if counts[k] != 0 {
			t.Errorf("checkpointed key %s re-simulated %d time(s)", k, counts[k])
		}
	}
	// The LRR launches are the scheduler ablation's own: a resume must
	// serve those from the journal too.
	lrr := 0
	for _, k := range preKeys {
		if lrrKeys[k] {
			lrr++
		}
	}
	if lrr == 0 {
		t.Errorf("no scheduler-ablation launch was journaled before the final resume")
	}
	_, _, ckptHits := final.SimCounts()
	if len(preKeys) > 0 && ckptHits == 0 {
		t.Errorf("%d checkpointed keys but zero checkpoint hits", len(preKeys))
	}
	t.Logf("final: %d key(s) inherited, %d checkpoint hit(s), %d compute(s)",
		len(preKeys), ckptHits, len(counts))

	// Goroutine-leak check (no external deps): all workers and waiters must
	// have drained once the sweeps returned.
	deadline := time.Now().Add(2 * time.Second)
	for {
		if n := runtime.NumGoroutine(); n <= baseGoroutines {
			break
		}
		if time.Now().After(deadline) {
			t.Errorf("goroutines leaked: %d before chaos, %d after", baseGoroutines, runtime.NumGoroutine())
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
}
