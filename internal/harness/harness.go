// Package harness regenerates every table and figure of the CRAT paper's
// evaluation (§7). Each Figure*/Table* function runs the required
// simulations and returns text tables whose rows mirror what the paper
// plots; EXPERIMENTS.md records the paper-vs-measured comparison.
package harness

import (
	"context"
	"fmt"
	"io"
	"math"
	"strings"
	"sync"

	"crat/internal/checkpoint"
	"crat/internal/core"
	"crat/internal/gpusim"
	"crat/internal/pool"
	"crat/internal/ptx"
	"crat/internal/workloads"
)

// Table is a rendered experiment result.
type Table struct {
	ID      string // e.g. "fig13"
	Title   string
	Columns []string
	Rows    [][]string
	Notes   []string
}

// AddRow appends a row of stringified cells.
func (t *Table) AddRow(cells ...string) {
	t.Rows = append(t.Rows, cells)
}

// Render writes the table as aligned text.
func (t *Table) Render(w io.Writer) {
	fmt.Fprintf(w, "== %s: %s ==\n", t.ID, t.Title)
	widths := make([]int, len(t.Columns))
	for i, c := range t.Columns {
		widths[i] = len(c)
	}
	for _, row := range t.Rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	line := func(cells []string) {
		parts := make([]string, len(cells))
		for i, c := range cells {
			if i < len(widths) {
				parts[i] = fmt.Sprintf("%-*s", widths[i], c)
			} else {
				parts[i] = c
			}
		}
		fmt.Fprintln(w, "  "+strings.Join(parts, "  "))
	}
	line(t.Columns)
	for _, row := range t.Rows {
		line(row)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(w, "  note: %s\n", n)
	}
	fmt.Fprintln(w)
}

// f formats a float compactly.
func f(v float64) string { return fmt.Sprintf("%.3f", v) }

// Geomean returns the geometric mean of vs (1.0 for empty input).
func Geomean(vs []float64) float64 {
	if len(vs) == 0 {
		return 1
	}
	sum := 0.0
	for _, v := range vs {
		sum += math.Log(v)
	}
	return math.Exp(sum / float64(len(vs)))
}

// Session caches per-app analyses, mode evaluations, and every simulated
// launch, so the figures that share inputs (13-16, energy) do not
// re-simulate.
//
// A Session is safe for concurrent use: every cache is a pool.Memo, so when
// several goroutines request the same key the first computes it and the
// rest block on that computation rather than duplicating it. Results are
// therefore identical to serial use regardless of the worker count.
type Session struct {
	Arch  gpusim.Config
	Costs gpusim.Costs

	mu      sync.Mutex
	ctx     context.Context // base context; nil = context.Background()
	workers int             // 0 = pool.DefaultWorkers()
	verify  bool            // run the semantic oracle on every compiled mode
	ckpt    *checkpoint.Store
	apps    *pool.Memo[string, core.App]
	// sims is the one simulation memo: every launch the session simulates,
	// keyed by simKey and checkpointed under that same key.
	sims *pool.Memo[string, gpusim.Stats]
	// analyses, evals and unionWin hold compile results built on sims: the
	// profiled analysis per app, every mode evaluation ("<app>/<mode>") and
	// single-backend run ("<app>/backend/<name>"), and the union-selection
	// winner per app. They are rebuilt, never checkpointed; evals also
	// keeps a degradation note from repeating.
	analyses *pool.Memo[string, analysisResult]
	evals    *pool.Memo[string, modeResult]
	unionWin *pool.Memo[string, string]
	// backendNames is the enabled backend set (empty = all registered).
	backendNames []string
	// computes counts simulations actually run, by key; the concurrency
	// tests assert every key was simulated exactly once, and the chaos
	// tests that checkpointed keys are never simulated at all.
	computes map[string]int
	// memoHits and ckptHits count simulations served from sims and from
	// the checkpoint store.
	memoHits, ckptHits int

	// Faults collects every per-app and per-experiment failure captured by
	// the graceful-degradation harness (see FaultSummary). Guarded by mu.
	Faults []FaultRecord
}

type analysisResult struct {
	a    *core.Analysis
	runs []gpusim.Stats
}

type modeResult struct {
	stats    gpusim.Stats
	decision *core.Decision
}

// NewSession prepares a session for the architecture, measuring the
// microbenchmark costs once.
func NewSession(arch gpusim.Config) (*Session, error) {
	costs, err := gpusim.MeasureCosts(arch)
	if err != nil {
		return nil, err
	}
	return &Session{
		Arch:     arch,
		Costs:    costs,
		apps:     pool.NewMemo[string, core.App](),
		sims:     pool.NewMemo[string, gpusim.Stats](),
		analyses: pool.NewMemo[string, analysisResult](),
		evals:    pool.NewMemo[string, modeResult](),
		unionWin: pool.NewMemo[string, string](),
		computes: make(map[string]int),
	}, nil
}

// SetContext installs the session's base context: every Analysis, Mode,
// Speedup, Backend and UnionWinner call, and every simulation a figure
// runner starts itself, observes its cancellation and deadline. nil
// restores context.Background().
func (s *Session) SetContext(ctx context.Context) {
	s.mu.Lock()
	s.ctx = ctx
	s.mu.Unlock()
}

// Context returns the session's base context (Background when unset).
func (s *Session) Context() context.Context {
	s.mu.Lock()
	ctx := s.ctx
	s.mu.Unlock()
	if ctx == nil {
		return context.Background()
	}
	return ctx
}

// SetCheckpoint attaches a durable result store: every simulated launch is
// persisted to it, and consulted before simulating. The store must have
// been opened against this session's configuration hash (see ConfigHash)
// — the manifest check in checkpoint.Open enforces that.
func (s *Session) SetCheckpoint(st *checkpoint.Store) {
	s.mu.Lock()
	s.ckpt = st
	s.mu.Unlock()
}

// SetVerify enables the differential semantic-equivalence oracle on every
// mode compilation: a divergent kernel degrades to the verified baseline
// allocation (core.Options.VerifyEquivalence) and the degradation is
// recorded in the session's fault summary.
func (s *Session) SetVerify(on bool) {
	s.mu.Lock()
	s.verify = on
	s.mu.Unlock()
}

func (s *Session) verifyOn() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.verify
}

// Checkpoint returns the attached store (nil when checkpointing is off).
func (s *Session) Checkpoint() *checkpoint.Store {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.ckpt
}

// simSchema names the checkpoint record format: the simKey fields and the
// gpusim.Stats payload. Change it whenever either changes, so that a
// journal of older records fails -resume with checkpoint.ErrStale.
const simSchema = "sim/v1"

// ConfigHash fingerprints everything the session's cached results depend
// on: the record schema, the architecture configuration and the
// microbenchmarked costs. A checkpoint written under a different hash must
// not be resumed.
func (s *Session) ConfigHash() string {
	h, err := checkpoint.Hash(struct {
		Schema string
		Arch   gpusim.Config
		Costs  gpusim.Costs
	}{simSchema, s.Arch, s.Costs})
	if err != nil {
		// gpusim.Config and Costs are plain data; Marshal cannot fail on
		// them. Degrade to a constant that still namespaces by arch.
		return "unhashable/" + s.Arch.Name
	}
	return h
}

// SimCounts reports how the session's simulations were served: run on
// the simulator, answered by the memo, and restored from the checkpoint
// store.
func (s *Session) SimCounts() (run, memoHits, ckptHits int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, v := range s.computes {
		run += v
	}
	return run, s.memoHits, s.ckptHits
}

// SetWorkers bounds the goroutines the session fans experiments across.
// n <= 0 restores the default (one per CPU); 1 makes every run serial.
func (s *Session) SetWorkers(n int) {
	if n < 0 {
		n = 0
	}
	s.mu.Lock()
	s.workers = n
	s.mu.Unlock()
}

// Workers returns the session's effective worker count.
func (s *Session) Workers() int {
	s.mu.Lock()
	n := s.workers
	s.mu.Unlock()
	if n == 0 {
		return pool.DefaultWorkers()
	}
	return n
}

// computeCounts snapshots the per-key simulation counts.
func (s *Session) computeCounts() map[string]int {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make(map[string]int, len(s.computes))
	for k, v := range s.computes {
		out[k] = v
	}
	return out
}

// simKey is the content key of one launch, "sim/" plus the hash of
// everything the simulator reads: the app's name (Session.App treats it
// as the input's identity; AppWithInput names carry the input), grid and
// block, the architecture, the register count and TLP limit, and the
// kernel — its printed text plus the spill tags the printer omits, which
// feed the spill statistics.
func simKey(app core.App, arch gpusim.Config, k *ptx.Kernel, regs, tlp int) (string, error) {
	meta := make([]ptx.InstMeta, len(k.Insts))
	for i := range k.Insts {
		meta[i] = k.Insts[i].Meta
	}
	h, err := checkpoint.Hash(struct {
		App         string
		Grid, Block int
		Arch        gpusim.Config
		Regs, TLP   int
		Kernel      string
		Meta        []ptx.InstMeta
	}{app.Name, app.Grid, app.Block, arch, regs, tlp, ptx.Print(k), meta})
	return "sim/" + h, err
}

// simulate is the session's one simulation path, a core.Simulate: each
// distinct launch is simulated once per session and journaled under its
// simKey, so a resumed run re-simulates no launch it already journaled.
func (s *Session) simulate(ctx context.Context, app core.App, arch gpusim.Config, k *ptx.Kernel, regs, tlp int) (gpusim.Stats, error) {
	key, err := simKey(app, arch, k, regs, tlp)
	if err != nil {
		return gpusim.Stats{}, err
	}
	st, memoized, err := s.sims.Do(ctx, key, func() (gpusim.Stats, error) {
		var st gpusim.Stats
		if s.ckptGet(key, &st) {
			return st, nil
		}
		s.mu.Lock()
		s.computes[key]++
		s.mu.Unlock()
		st, err := core.SimulateKernelCtx(ctx, app, arch, k, regs, tlp)
		if err == nil {
			s.ckptPut(key, st)
		}
		return st, err
	})
	if memoized {
		s.mu.Lock()
		s.memoHits++
		s.mu.Unlock()
	}
	return st, err
}

// ckptGet decodes the entry under key into out, counting a hit.
func (s *Session) ckptGet(key string, out any) bool {
	st := s.Checkpoint()
	if st == nil {
		return false
	}
	ok, err := st.Get(key, out)
	if err != nil {
		// A malformed entry is treated as a miss: recomputing is always
		// safe, and the rewrite will repair the journal.
		s.recordFault("checkpoint", fmt.Errorf("ignoring entry %q: %w", key, err))
		return false
	}
	if ok {
		s.mu.Lock()
		s.ckptHits++
		s.mu.Unlock()
	}
	return ok
}

// ckptPut persists a completed result. Persistence failures degrade to
// session faults rather than failing the experiment: the computed result
// is still correct, the sweep just loses durability for that key.
func (s *Session) ckptPut(key string, v any) {
	st := s.Checkpoint()
	if st == nil {
		return
	}
	if err := st.Put(key, v); err != nil {
		s.recordFault("checkpoint", fmt.Errorf("persisting %q: %w", key, err))
	}
}

// App returns the materialized app for a profile, cached. Building an app
// is deterministic codegen (no simulation), so it takes no context.
func (s *Session) App(p workloads.Profile) core.App {
	a, _, _ := s.apps.Do(context.Background(), p.Abbr, func() (core.App, error) { return p.App(), nil })
	return a
}

// Analysis returns the app's analysis with OptTLP profiled, plus the per-TLP
// profiling runs (cached), under the session context.
func (s *Session) Analysis(p workloads.Profile) (*core.Analysis, []gpusim.Stats, error) {
	ctx := s.Context()
	r, _, err := s.analyses.Do(ctx, p.Abbr, func() (analysisResult, error) {
		app := s.App(p)
		a, err := core.Analyze(app, s.Arch)
		if err != nil {
			return analysisResult{}, err
		}
		opt, runs, err := core.ProfileOptTLPNCtx(ctx, app, s.Arch, a, s.Workers(), s.simulate)
		if err != nil {
			return analysisResult{}, err
		}
		a.OptTLP = opt
		return analysisResult{a: a, runs: runs}, nil
	})
	return r.a, r.runs, err
}

// Mode evaluates one §7.2 comparison mode for the app (cached), under the
// session context. The OptTLP comes from the session's profiled analysis,
// so modes share it.
func (s *Session) Mode(p workloads.Profile, mode core.Mode) (gpusim.Stats, *core.Decision, error) {
	return s.evaluate(p, mode, nil, p.Abbr+"/"+mode.String())
}

// evaluate compiles the app in mode, with backends enabled (nil = the
// mode's own), at the session's profiled OptTLP and measured costs, then
// simulates the chosen kernel. The result is memoized under key.
func (s *Session) evaluate(p workloads.Profile, mode core.Mode, backends []string, key string) (gpusim.Stats, *core.Decision, error) {
	r, _, err := s.evals.Do(s.Context(), key, func() (modeResult, error) {
		a, _, err := s.Analysis(p)
		if err != nil {
			return modeResult{}, err
		}
		st, d, err := s.runMode(s.App(p), mode, core.Options{Arch: s.Arch, Analysis: a, OptTLP: a.OptTLP, Costs: s.Costs,
			Backends: backends, VerifyEquivalence: s.verifyOn()})
		if err != nil {
			return modeResult{}, err
		}
		s.noteDegradation(key, d)
		return modeResult{stats: st, decision: d}, nil
	})
	return r.stats, r.decision, err
}

// runMode compiles app in mode under opts and simulates the chosen kernel
// through the session's simulation memo.
func (s *Session) runMode(app core.App, mode core.Mode, opts core.Options) (gpusim.Stats, *core.Decision, error) {
	ctx := s.Context()
	opts, err := mode.Options(app, opts)
	if err != nil {
		return gpusim.Stats{}, nil, err
	}
	d, err := core.OptimizeCtx(ctx, app, opts)
	if err != nil {
		return gpusim.Stats{}, nil, err
	}
	st, err := s.simulate(ctx, app, opts.Arch, d.Chosen.Kernel(), d.Chosen.UsedRegs(), mode.LaunchTLP(d))
	return st, d, err
}

// Speedup returns the app's speedup in mode over the OptTLP baseline, the
// ratio of two memoized Modes, under the session context.
func (s *Session) Speedup(p workloads.Profile, mode core.Mode) (float64, error) {
	base, _, err := s.Mode(p, core.ModeOptTLP)
	if err != nil {
		return 0, err
	}
	st, _, err := s.Mode(p, mode)
	if err != nil {
		return 0, err
	}
	return float64(base.Cycles) / float64(st.Cycles), nil
}
