package harness

import (
	"context"
	"fmt"
	"io"
	"path/filepath"
	"sort"

	"crat/internal/checkpoint"
	"crat/internal/gpusim"
)

// Experiment couples an identifier with its runner.
type Experiment struct {
	ID   string
	Desc string
	Run  func(s *Session) ([]*Table, error)
	Arch string // "fermi" (default) or "kepler"
}

// one wraps a single-table runner.
func one(f func(s *Session) (*Table, error)) func(s *Session) ([]*Table, error) {
	return func(s *Session) ([]*Table, error) {
		t, err := f(s)
		if err != nil {
			return nil, err
		}
		return []*Table{t}, nil
	}
}

// Experiments returns the registry of every table/figure runner, keyed as
// in DESIGN.md's per-experiment index.
func Experiments() []Experiment {
	return []Experiment{
		{ID: "table1", Desc: "collected resource parameters", Run: one((*Session).Table1)},
		{ID: "table2", Desc: "simulated configuration", Run: func(s *Session) ([]*Table, error) { return []*Table{s.Table2()}, nil }},
		{ID: "table3", Desc: "application list", Run: func(s *Session) ([]*Table, error) { return []*Table{Table3()}, nil }},
		{ID: "fig1", Desc: "thread throttling benefit and register waste", Run: one((*Session).Figure1)},
		{ID: "fig2", Desc: "CFD design space sweep", Run: one((*Session).Figure2)},
		{ID: "fig3", Desc: "CFD selected design points", Run: one((*Session).Figure3)},
		{ID: "fig5", Desc: "throttling impact on L1", Run: one((*Session).Figure5)},
		{ID: "fig6", Desc: "register per-thread impact (CFD)", Run: one((*Session).Figure6)},
		{ID: "fig7", Desc: "register vs shared memory utilization", Run: one((*Session).Figure7)},
		{ID: "fig8", Desc: "FDTD spill-choice exploration", Run: one((*Session).Figure8)},
		{ID: "fig12", Desc: "spill-volume cross-validation", Run: one((*Session).Figure12)},
		{ID: "fig13", Desc: "headline performance comparison", Run: one((*Session).Figure13)},
		{ID: "fig14", Desc: "selected TLP", Run: one((*Session).Figure14)},
		{ID: "fig15", Desc: "register utilization", Run: one((*Session).Figure15)},
		{ID: "fig16", Desc: "local memory access reduction", Run: one((*Session).Figure16)},
		{ID: "energy", Desc: "energy vs OptTLP", Run: one((*Session).Energy)},
		{ID: "fig17", Desc: "Kepler scalability", Run: one((*Session).Figure17), Arch: "kepler"},
		{ID: "fig18", Desc: "input sensitivity", Run: one((*Session).Figure18)},
		{ID: "fig19", Desc: "resource-insensitive applications", Run: one((*Session).Figure19)},
		{ID: "fig20", Desc: "CRAT-profile vs CRAT-static", Run: one((*Session).Figure20)},
		{ID: "overhead", Desc: "framework overhead", Run: one((*Session).Overhead)},
		{ID: "abl-sched", Desc: "ablation: GTO vs LRR", Run: one((*Session).AblationScheduler)},
		{ID: "abl-spillcost", Desc: "ablation: spill-cost weighting", Run: one((*Session).AblationSpillCost)},
		{ID: "abl-split", Desc: "ablation: sub-stack splitting", Run: one((*Session).AblationSubstackSplit)},
		{ID: "abl-pruning", Desc: "ablation: design-space pruning", Run: one((*Session).AblationPruning)},
		{ID: "abl-tpsc", Desc: "ablation: TPSC vs oracle", Run: one((*Session).AblationTPSC)},
		{ID: "abl-bypass", Desc: "ablation: CRAT with L1 bypassing", Run: one((*Session).AblationBypass)},
		{ID: "backends", Desc: "optimization-backend head-to-head", Run: one((*Session).BackendHeadToHead)},
	}
}

// RunOptions configures RunExperimentsCtx.
type RunOptions struct {
	// Workers bounds each session's simulation fan-out (0 = one per CPU,
	// 1 = serial); the rendered output is identical at any setting.
	Workers int
	// Strict makes the run return an error when any per-app or
	// per-experiment fault was captured. Without it the run degrades
	// gracefully: ERROR rows render, the fault summary prints, and the
	// error return covers only setup problems (unknown IDs, session init).
	Strict bool
	// CheckpointDir enables durable result persistence: each architecture
	// gets a sub-store (dir/fermi, dir/kepler) keyed by that session's
	// configuration hash. Empty disables checkpointing.
	CheckpointDir string
	// Resume loads existing checkpoints from CheckpointDir instead of
	// starting fresh; a checkpoint written under a different configuration
	// is rejected (checkpoint.ErrStale).
	Resume bool
	// Backends restricts the optimization backends the head-to-head
	// experiment sweeps (empty = every registered backend).
	Backends []string
}

// RunReport summarizes a RunExperimentsCtx invocation for callers that
// need more than pass/fail (the CLI's survival report, the chaos tests).
type RunReport struct {
	Failed      []string // experiment IDs that failed outright
	Faults      int      // total captured faults across sessions
	SimRuns     int      // launches run on the simulator
	SimMemoHits int      // launches served from the session memos
	CkptHits    int      // launches served from checkpoint stores
	Persisted   int      // entries durable on disk after the run
	Loaded      int      // entries inherited from a resumed checkpoint
}

// RunExperimentsCtx executes the selected experiment IDs ("all" or empty =
// everything) and renders results to w. Sessions are shared per
// architecture so figures reuse each other's simulations. Cancellation (or
// a deadline) stops dispatching work promptly: in-flight simulations
// notice within a cycle stride, undispatched apps degrade to "skipped"
// fault rows, and every completed result already persisted to the
// checkpoint store survives for a later -resume.
func RunExperimentsCtx(ctx context.Context, ids []string, opts RunOptions, w io.Writer) (*RunReport, error) {
	wanted := make(map[string]bool)
	for _, id := range ids {
		if id == "all" {
			wanted = nil
			break
		}
		wanted[id] = true
	}
	sessions := make(map[string]*Session)
	session := func(arch string) (*Session, error) {
		if arch == "" {
			arch = "fermi"
		}
		if s, ok := sessions[arch]; ok {
			return s, nil
		}
		cfg, err := gpusim.ConfigByName(arch)
		if err != nil {
			return nil, err
		}
		s, err := NewSession(cfg)
		if err != nil {
			return nil, err
		}
		s.SetWorkers(opts.Workers)
		s.SetContext(ctx)
		s.SetBackends(opts.Backends)
		if opts.CheckpointDir != "" {
			dir := filepath.Join(opts.CheckpointDir, arch)
			st, err := checkpoint.Open(dir, s.ConfigHash(), arch, opts.Resume)
			if err != nil && opts.Resume && !opts.Strict {
				// A stale or unreadable checkpoint degrades to a fresh run:
				// recomputing is always safe, refusing to run is not. -strict
				// keeps the hard error for callers that depend on the resume.
				fmt.Fprintf(w, "checkpoint: resume of %s failed (%v); starting fresh — previous results will be recomputed\n", dir, err)
				st, err = checkpoint.Open(dir, s.ConfigHash(), arch, false)
			}
			if err != nil {
				return nil, err
			}
			if h := st.Health(); h.SalvagedTail > 0 || h.Quarantined > 0 {
				fmt.Fprintf(w, "checkpoint: %s salvaged: dropped %d torn record(s), quarantined %d corrupt chunk(s) (%d bytes); %d entries survive\n",
					dir, h.SalvagedTail, h.Quarantined, h.QuarantinedBytes, h.Entries)
			}
			s.SetCheckpoint(st)
		}
		sessions[arch] = s
		return s, nil
	}

	known := make(map[string]bool)
	for _, e := range Experiments() {
		known[e.ID] = true
	}
	if wanted != nil {
		var missing []string
		for id := range wanted {
			if !known[id] {
				missing = append(missing, id)
			}
		}
		sort.Strings(missing)
		if len(missing) > 0 {
			return nil, fmt.Errorf("unknown experiment ids: %v", missing)
		}
	}

	var failed []string
	for _, e := range Experiments() {
		if wanted != nil && !wanted[e.ID] {
			continue
		}
		s, err := session(e.Arch)
		if err != nil {
			return nil, err
		}
		var tables []*Table
		err = capture(func() error {
			var runErr error
			tables, runErr = e.Run(s)
			return runErr
		})
		if err != nil {
			// One broken experiment must not take down the rest of the run:
			// report it in place, record it, and keep going.
			fmt.Fprintf(w, "== %s: %s ==\n  ERROR: %v\n\n", e.ID, e.Desc, err)
			s.recordFault(e.ID, err)
			failed = append(failed, e.ID)
			continue
		}
		for _, t := range tables {
			t.Render(w)
		}
	}
	// Session-level fault summary: everything captured, per-app and
	// per-experiment, across all architectures.
	archs := make([]string, 0, len(sessions))
	for a := range sessions {
		archs = append(archs, a)
	}
	sort.Strings(archs)
	rep := &RunReport{}
	for _, a := range archs {
		s := sessions[a]
		if t := s.FaultSummary(); t != nil {
			t.Render(w)
		}
		rep.Faults += len(s.Faults)
		run, memoHits, ckptHits := s.SimCounts()
		rep.SimRuns += run
		rep.SimMemoHits += memoHits
		rep.CkptHits += ckptHits
		if st := s.Checkpoint(); st != nil {
			// Final durability barrier: after this, every entry counted in
			// Persisted has survived the fsync'd rename.
			if err := st.Flush(); err != nil {
				return nil, fmt.Errorf("harness: flushing checkpoint %s: %w", st.Dir(), err)
			}
			rep.Persisted += st.Count()
			rep.Loaded += st.Loaded()
		}
	}
	sort.Strings(failed)
	rep.Failed = failed
	if !opts.Strict {
		return rep, nil
	}
	if len(failed) > 0 {
		return rep, fmt.Errorf("harness: %d experiment(s) failed: %v", len(failed), failed)
	}
	if rep.Faults > 0 {
		return rep, fmt.Errorf("harness: completed with %d captured fault(s); see fault summary", rep.Faults)
	}
	return rep, nil
}
