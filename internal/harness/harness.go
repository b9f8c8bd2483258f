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
	"time"

	"crat/internal/checkpoint"
	"crat/internal/core"
	"crat/internal/gpusim"
	"crat/internal/pool"
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

// Session caches per-app analyses, profiling runs, and mode evaluations so
// the figures that share inputs (13-16, energy) do not re-simulate.
//
// A Session is safe for concurrent use: every cache is a pool.Memo, so when
// several goroutines request the same key the first computes it and the
// rest block on that computation rather than duplicating it. Results are
// therefore identical to serial use regardless of the worker count.
type Session struct {
	Arch  gpusim.Config
	Costs gpusim.Costs

	mu       sync.Mutex
	ctx      context.Context // base context; nil = context.Background()
	workers  int             // 0 = pool.DefaultWorkers()
	verify   bool            // run the semantic oracle on every compiled mode
	ckpt     *checkpoint.Store
	apps     *pool.Memo[string, core.App]
	analyses *pool.Memo[string, analysisResult]
	modeRes  *pool.Memo[string, modeResult]
	speedups *pool.Memo[string, float64]
	// backendRes caches per-(app, backend) evaluations; unionWin the
	// compile-only union-selection winner per app. backendNames is the
	// enabled backend set (empty = all registered).
	backendRes   *pool.Memo[string, modeResult]
	unionWin     *pool.Memo[string, string]
	backendNames []string
	// computes counts cache-miss computations by key; the concurrency tests
	// assert every key was simulated exactly once, and the chaos tests that
	// checkpointed keys are never simulated at all.
	computes map[string]int
	// ckptHits counts results served from the checkpoint store by key.
	ckptHits map[string]int

	// ProfileWall accumulates profiling wall-clock for the overhead report.
	// Guarded by mu while experiments run; read it only after they finish.
	ProfileWall time.Duration
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
		Arch:       arch,
		Costs:      costs,
		apps:       pool.NewMemo[string, core.App](),
		analyses:   pool.NewMemo[string, analysisResult](),
		modeRes:    pool.NewMemo[string, modeResult](),
		speedups:   pool.NewMemo[string, float64](),
		backendRes: pool.NewMemo[string, modeResult](),
		unionWin:   pool.NewMemo[string, string](),
		computes:   make(map[string]int),
		ckptHits:   make(map[string]int),
	}, nil
}

// SetContext installs the session's base context: Analysis/Mode/Speedup
// calls without an explicit context (every figure runner) observe its
// cancellation and deadline. nil restores context.Background().
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

// SetCheckpoint attaches a durable result store: completed analyses, mode
// evaluations, and speedups are persisted to it, and consulted before
// simulating. The store must have been opened against this session's
// configuration hash (see ConfigHash) — the manifest check in
// checkpoint.Open enforces that.
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

// ConfigHash fingerprints everything the session's cached results depend
// on: the architecture configuration and the microbenchmarked costs. A
// checkpoint written under a different hash must not be resumed.
func (s *Session) ConfigHash() string {
	h, err := checkpoint.Hash(struct {
		Arch  gpusim.Config
		Costs gpusim.Costs
	}{s.Arch, s.Costs})
	if err != nil {
		// gpusim.Config and Costs are plain data; Marshal cannot fail on
		// them. Degrade to a constant that still namespaces by arch.
		return "unhashable/" + s.Arch.Name
	}
	return h
}

// noteCkptHit records that key was served from the checkpoint store.
func (s *Session) noteCkptHit(key string) {
	s.mu.Lock()
	s.ckptHits[key]++
	s.mu.Unlock()
}

// CheckpointHits snapshots the per-key checkpoint-hit counts.
func (s *Session) CheckpointHits() map[string]int {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make(map[string]int, len(s.ckptHits))
	for k, v := range s.ckptHits {
		out[k] = v
	}
	return out
}

// CheckpointHitCount totals the results served from the checkpoint store.
func (s *Session) CheckpointHitCount() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	n := 0
	for _, v := range s.ckptHits {
		n += v
	}
	return n
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
		s.noteCkptHit(key)
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

// noteCompute records that key's value was actually computed (not served
// from cache): the dedup tests read these counts.
func (s *Session) noteCompute(key string) {
	s.mu.Lock()
	s.computes[key]++
	s.mu.Unlock()
}

// computeCounts snapshots the per-key computation counts.
func (s *Session) computeCounts() map[string]int {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make(map[string]int, len(s.computes))
	for k, v := range s.computes {
		out[k] = v
	}
	return out
}

// analysisEntry is the checkpoint payload for one app's analysis: the
// profiled OptTLP and the per-TLP profiling runs. The Analysis struct
// itself is recomputed — core.Analyze is deterministic compilation, no
// simulator cycles — so only the simulated artifacts persist.
type analysisEntry struct {
	OptTLP int            `json:"optTLP"`
	Runs   []gpusim.Stats `json:"runs"`
}

// modeEntry is the checkpoint payload for one (app, mode) evaluation. The
// Decision is rebuilt by core.CompileModeCtx (deterministic given OptTLP
// and Costs); only the simulated stats persist.
type modeEntry struct {
	Stats gpusim.Stats `json:"stats"`
}

// App returns the materialized app for a profile, cached. Building an app
// is deterministic codegen (no simulation), so it takes no context.
func (s *Session) App(p workloads.Profile) core.App {
	a, _, _ := s.apps.Do(context.Background(), p.Abbr, func() (core.App, error) { return p.App(), nil })
	return a
}

// Analysis returns the app's analysis with OptTLP profiled, plus the per-TLP
// profiling runs (cached), under the session's base context.
func (s *Session) Analysis(p workloads.Profile) (*core.Analysis, []gpusim.Stats, error) {
	return s.AnalysisCtx(s.Context(), p)
}

// AnalysisCtx is Analysis under an explicit context. A checkpointed result
// restores the profiled OptTLP and runs without simulating; otherwise the
// profiling sweep runs (observing ctx) and the result is persisted.
func (s *Session) AnalysisCtx(ctx context.Context, p workloads.Profile) (*core.Analysis, []gpusim.Stats, error) {
	key := "analysis/" + p.Abbr
	r, _, err := s.analyses.Do(ctx, p.Abbr, func() (analysisResult, error) {
		app := s.App(p)
		a, err := core.Analyze(app, s.Arch)
		if err != nil {
			return analysisResult{}, err
		}
		var e analysisEntry
		if s.ckptGet(key, &e) {
			a.OptTLP = e.OptTLP
			return analysisResult{a: a, runs: e.Runs}, nil
		}
		s.noteCompute(key)
		start := time.Now()
		opt, runs, err := core.ProfileOptTLPNCtx(ctx, app, s.Arch, a, s.Workers())
		if err != nil {
			return analysisResult{}, err
		}
		elapsed := time.Since(start)
		s.mu.Lock()
		s.ProfileWall += elapsed
		s.mu.Unlock()
		a.OptTLP = opt
		s.ckptPut(key, analysisEntry{OptTLP: opt, Runs: runs})
		return analysisResult{a: a, runs: runs}, nil
	})
	return r.a, r.runs, err
}

// Mode evaluates one §7.2 comparison mode for the app (cached), under the
// session's base context. The OptTLP comes from the session's profiled
// analysis, so modes share it.
func (s *Session) Mode(p workloads.Profile, mode core.Mode) (gpusim.Stats, *core.Decision, error) {
	return s.ModeCtx(s.Context(), p, mode)
}

// ModeCtx is Mode under an explicit context. A checkpointed result restores
// the simulated stats and deterministically recompiles the Decision
// (core.CompileModeCtx runs zero simulations when OptTLP and Costs are
// supplied); otherwise the mode is simulated and persisted.
func (s *Session) ModeCtx(ctx context.Context, p workloads.Profile, mode core.Mode) (gpusim.Stats, *core.Decision, error) {
	key := p.Abbr + "/" + mode.String()
	ckey := "mode/" + key
	r, _, err := s.modeRes.Do(ctx, key, func() (modeResult, error) {
		a, _, err := s.AnalysisCtx(ctx, p)
		if err != nil {
			return modeResult{}, err
		}
		opts := core.Options{Arch: s.Arch, Analysis: a, OptTLP: a.OptTLP, Costs: s.Costs, Workers: s.Workers(),
			VerifyEquivalence: s.verifyOn()}
		var e modeEntry
		if s.ckptGet(ckey, &e) {
			d, err := core.CompileModeCtx(ctx, s.App(p), mode, opts)
			if err != nil {
				return modeResult{}, err
			}
			s.noteDegradation(key, d)
			return modeResult{stats: e.Stats, decision: d}, nil
		}
		s.noteCompute(ckey)
		st, d, err := core.RunModeCtx(ctx, s.App(p), mode, opts)
		if err != nil {
			return modeResult{}, err
		}
		s.noteDegradation(key, d)
		s.ckptPut(ckey, modeEntry{Stats: st})
		return modeResult{stats: st, decision: d}, nil
	})
	return r.stats, r.decision, err
}

// Speedup returns mode-vs-OptTLP speedup for the app, under the session's
// base context.
func (s *Session) Speedup(p workloads.Profile, mode core.Mode) (float64, error) {
	return s.SpeedupCtx(s.Context(), p, mode)
}

// SpeedupCtx is Speedup under an explicit context, cached and checkpointed
// like ModeCtx: a persisted ratio short-circuits both mode evaluations.
func (s *Session) SpeedupCtx(ctx context.Context, p workloads.Profile, mode core.Mode) (float64, error) {
	key := p.Abbr + "/" + mode.String()
	ckey := "speedup/" + key
	v, _, err := s.speedups.Do(ctx, key, func() (float64, error) {
		var v float64
		if s.ckptGet(ckey, &v) {
			return v, nil
		}
		s.noteCompute(ckey)
		base, _, err := s.ModeCtx(ctx, p, core.ModeOptTLP)
		if err != nil {
			return 0, err
		}
		st, _, err := s.ModeCtx(ctx, p, mode)
		if err != nil {
			return 0, err
		}
		v = float64(base.Cycles) / float64(st.Cycles)
		s.ckptPut(ckey, v)
		return v, nil
	})
	return v, err
}
