package core

import (
	"context"
	"fmt"

	"crat/internal/backend"
	"crat/internal/gpusim"
	"crat/internal/oracle"
	"crat/internal/passes"
	"crat/internal/ptx"
	"crat/internal/spillopt"
)

// Mode selects which configuration of the paper's §7.2 comparison to build.
type Mode uint8

// Comparison modes.
const (
	// ModeMaxTLP: default register allocation, no throttling.
	ModeMaxTLP Mode = iota
	// ModeOptTLP: default register allocation, block-level thread
	// throttling at the optimal TLP (Kayiran et al., PACT'13).
	ModeOptTLP
	// ModeCRATLocal: CRAT with the shared-memory spilling optimization
	// disabled (spills go to local memory only).
	ModeCRATLocal
	// ModeCRAT: the full framework.
	ModeCRAT
)

// String names the mode as in the paper's figures.
func (m Mode) String() string {
	switch m {
	case ModeMaxTLP:
		return "MaxTLP"
	case ModeOptTLP:
		return "OptTLP"
	case ModeCRATLocal:
		return "CRAT-local"
	default:
		return "CRAT"
	}
}

// Options configures the OptimizeCtx pipeline (Mode.Options maps the
// comparison modes onto it).
type Options struct {
	Arch gpusim.Config
	// OptTLP is the optimal TLP pruning caps the design space at: an
	// input found offline by ProfileOptTLPNCtx or EstimateOptTLP (paper
	// §4.1, §7.2). 0 (or less) means MaxTLP; values above MaxTLP are
	// clamped to it.
	OptTLP int
	// SpillShared disables (false) or enables (true) the shared-memory
	// spilling optimization. It only selects the implied backend when
	// Backends is empty: "crat" when set, "crat-local" otherwise.
	SpillShared bool
	// Backends names the candidate-generation backends whose candidates
	// compete under TPSC/oracle selection (internal/backend registry).
	// Order matters: full TPSC ties break toward the earlier backend.
	// Empty means the SpillShared-implied default.
	Backends []string
	// Pin, when Pin.Reg > 0, replaces the pruned design space with this
	// one point: the enabled backends compile only (Pin.Reg, Pin.TLP),
	// with Pin.TLP 0 meaning the analysis's MaxTLP. Selection, the oracle
	// gate and the Decision are those of a search.
	Pin backend.Point
	// Split selects the sub-stack splitting strategy for Algorithm 1.
	Split spillopt.Split
	// Coalesce enables the allocator's conservative copy-coalescing
	// pre-pass for every candidate (useful on mov-heavy external PTX).
	Coalesce bool
	// UnweightedGain/UnweightedSpillCost are ablation knobs.
	UnweightedGain      bool
	UnweightedSpillCost bool
	// DisablePruning keeps design points with TLP above OptTLP (ablation:
	// the pruned points cause cache thrashing and should never win).
	DisablePruning bool
	// Oracle replaces the TPSC model with exhaustive simulation of every
	// candidate (ablation: measures how close TPSC gets to the best
	// achievable point).
	Oracle bool
	// VerifyEquivalence runs the differential semantic oracle
	// (internal/oracle) on the chosen kernel's rewrite chain. On a
	// divergence the pipeline degrades to the verified baseline (MaxReg,
	// no shared spilling) allocation instead of failing; the Decision
	// records the Divergence.
	VerifyEquivalence bool
	// VerifyRuns is the number of generated input sets the oracle uses
	// when the app has no Setup provider (0 = oracle default).
	VerifyRuns int
	// VerifySeed is the oracle's base input-generation seed.
	VerifySeed int64
	// VerifyEachPass runs ptx.Verify on the working kernel after every
	// pipeline pass, failing fast with the offending pass named
	// (TestPassSmoke; cratc -verify-passes).
	VerifyEachPass bool
	// DumpAfter, when set, receives the working kernel after every pass
	// (cratc -dump-after filters by pass name inside the hook).
	DumpAfter func(pass string, k *ptx.Kernel)
	// Analysis is the app's resource analysis, already computed by Analyze
	// for the same App and Arch (nil = analyze here). The pipeline works on
	// a copy whose OptTLP comes from Options.OptTLP, so one analysis can
	// serve many compiles.
	Analysis *Analysis
	// Costs overrides the microbenchmarked per-access latencies
	// (zero value = measure on Arch).
	Costs gpusim.Costs
	// Workers bounds the goroutines the Oracle candidate sweep simulates
	// on. 0 or 1 keeps the pipeline fully serial; results are identical at
	// any setting.
	Workers int
}

// analyze returns a private copy of the supplied analysis (or analyzes
// the app when none was supplied) with OptTLP resolved from the options:
// 0 (or less) means MaxTLP, and nothing exceeds MaxTLP.
func (o Options) analyze(app App) (*Analysis, error) {
	a := o.Analysis
	if a == nil {
		var err error
		if a, err = Analyze(app, o.Arch); err != nil {
			return nil, err
		}
	}
	c := *a
	c.OptTLP = o.OptTLP
	if c.OptTLP < 1 || c.OptTLP > c.MaxTLP {
		c.OptTLP = c.MaxTLP
	}
	return &c, nil
}

// Candidate is one surviving design point: a backend's compiled candidate
// plus what core derives for it. Its Backend is "baseline" for the
// degraded-mode fallback.
type Candidate struct {
	backend.Candidate
	TPSC float64
	// Cycles is filled only under Options.Oracle.
	Cycles int64
}

// Decision is the outcome of the CRAT pipeline for one app.
type Decision struct {
	App        App
	Arch       gpusim.Config
	Analysis   *Analysis
	Costs      gpusim.Costs
	Candidates []Candidate
	Chosen     Candidate
	// Backend names the strategy whose candidate won the selection
	// (Chosen.Backend; "baseline" when the decision degraded).
	Backend string
	// Degraded is set when Options.VerifyEquivalence found the chosen
	// candidate semantically divergent and the pipeline fell back to the
	// baseline allocation.
	Degraded bool
	// Divergence is the oracle report that triggered the degradation
	// (nil unless Degraded).
	Divergence *oracle.Divergence
}

// OptimizeCtx runs the full CRAT pipeline on one app under a context:
// analysis, pruning at Options.OptTLP (or the pinned point), per-candidate
// register allocation and spilling optimization, and TPSC selection. With
// Options.Costs supplied (and Oracle off) the pipeline runs no simulations
// at all, so a resumed harness rebuilds every decision deterministically;
// the Oracle sweep observes cancellation and wall-clock deadlines.
func OptimizeCtx(ctx context.Context, app App, opts Options) (*Decision, error) {
	if err := ptx.Verify(app.Kernel, "input"); err != nil {
		return nil, err
	}
	return optimize(ctx, app, opts)
}

// optimize is OptimizeCtx on an input kernel the caller has verified.
func optimize(ctx context.Context, app App, opts Options) (*Decision, error) {
	// Resolve the backend set up front so a bad -backend flag fails before
	// any work runs.
	backends, err := backend.Resolve(opts.backendNames())
	if err != nil {
		return nil, err
	}
	arch := opts.Arch
	a, err := opts.analyze(app)
	if err != nil {
		return nil, err
	}
	d := &Decision{App: app, Arch: arch, Analysis: a}

	// Per-access costs for the TPSC model.
	d.Costs = opts.Costs
	if d.Costs.Local == 0 && d.Costs.Shared == 0 {
		c, err := gpusim.MeasureCosts(arch)
		if err != nil {
			return nil, err
		}
		d.Costs = c
	}

	// The remaining stages run as an instrumented pass pipeline over one
	// manager: prune (unless a point is pinned), then every enabled
	// backend's candidate pipeline over the shared design points, then
	// selection across the union. With no hooks set the manager only
	// records per-pass events and the process-wide timing aggregates.
	pm := &passes.Manager{VerifyEach: opts.VerifyEachPass, DumpAfter: opts.DumpAfter}
	am := passes.NewAnalysisManager(app.Kernel)

	req := backend.Request{
		AppName:             app.Name,
		Kernel:              app.Kernel,
		Arch:                arch,
		BlockSize:           a.BlockSize,
		ShmSize:             a.ShmSize,
		OptTLP:              a.OptTLP,
		Coalesce:            opts.Coalesce,
		Split:               opts.Split,
		UnweightedGain:      opts.UnweightedGain,
		UnweightedSpillCost: opts.UnweightedSpillCost,
	}
	if pin := opts.Pin; pin.Reg > 0 {
		if pin.TLP == 0 {
			pin.TLP = a.MaxTLP
		}
		req.Points = []backend.Point{pin}
	} else {
		pr := &prunePass{a: a, arch: arch, opts: opts}
		if err := pm.Run(am, pr); err != nil {
			return nil, err
		}
		req.Points = pr.points
	}
	for _, bk := range backends {
		cands, err := bk.Candidates(pm, req)
		if err != nil {
			// A pass emitted unverifiable IR or diverged from the oracle:
			// a compiler bug, not an infeasible budget (backends absorb
			// those by dropping the point).
			return nil, err
		}
		for _, bc := range cands {
			d.Candidates = append(d.Candidates, Candidate{
				Candidate: bc,
				TPSC:      TPSC(bc.TLP, a.BlockSize, arch.MaxThreadsPerSM, bc.Overhead, d.Costs),
			})
		}
	}
	if len(d.Candidates) == 0 {
		if opts.Pin.Reg > 0 {
			return nil, fmt.Errorf("core: %s: register budget %d is infeasible", app.Name, opts.Pin.Reg)
		}
		return nil, fmt.Errorf("core: %s: no feasible design points", app.Name)
	}

	var sel passes.Pass
	if opts.Oracle {
		sel = &oracleSelectPass{ctx: ctx, app: app, arch: arch, opts: opts, d: d}
	} else {
		sel = &tpscSelectPass{d: d}
	}
	if err := pm.Run(am, sel); err != nil {
		return nil, err
	}
	if opts.VerifyEquivalence {
		if err := verifyDecision(app, arch, a, d, opts); err != nil {
			return nil, err
		}
	}
	d.Backend = d.Chosen.Backend
	return d, nil
}

// backendNames resolves the enabled backend set: an explicit Backends
// list wins; otherwise the mode-implied default preserves the historical
// single-strategy pipeline.
func (o Options) backendNames() []string {
	if len(o.Backends) > 0 {
		return o.Backends
	}
	if o.SpillShared {
		return []string{"crat"}
	}
	return []string{"crat-local"}
}

// Options maps the mode onto OptimizeCtx options, each mode being one
// point or search in the same (reg, TLP) design space (paper §7.2):
// MaxTLP and OptTLP pin crat-local at the stock compiler's (DefaultReg,
// MaxTLP) or (DefaultReg, OptTLP) point; CRAT-local searches with
// crat-local; CRAT searches with crat unless opts already names backends.
// The baseline modes need the analysis to place their point, so the
// returned options carry it (resolved as OptimizeCtx would).
func (m Mode) Options(app App, opts Options) (Options, error) {
	switch m {
	case ModeMaxTLP, ModeOptTLP:
		a, err := opts.analyze(app)
		if err != nil {
			return opts, err
		}
		opts.Analysis = a
		opts.Backends = []string{"crat-local"}
		opts.Pin = backend.Point{Reg: a.DefaultReg, TLP: a.MaxTLP}
		if m == ModeOptTLP {
			opts.Pin.TLP = a.OptTLP
		}
	case ModeCRATLocal:
		opts.Backends = []string{"crat-local"}
	case ModeCRAT:
		if len(opts.Backends) == 0 {
			opts.Backends = []string{"crat"}
		}
	default:
		return opts, fmt.Errorf("core: unknown mode %d", m)
	}
	return opts, nil
}

// LaunchTLP returns the TLP limit the simulator runs the mode's decision
// at (0 = hardware maximum). The baseline modes throttle by mode alone, so
// a degraded fallback keeps the mode's limit; the CRAT modes run the
// chosen candidate's TLP.
func (m Mode) LaunchTLP(d *Decision) int {
	switch m {
	case ModeMaxTLP:
		return 0
	case ModeOptTLP:
		return d.Analysis.OptTLP
	}
	return d.Chosen.TLP
}

// RegisterUtilization returns the fraction of the register file a
// configuration occupies: TLP * BlockSize * reg / RegFileRegs (paper
// Figures 1b and 15).
func RegisterUtilization(arch gpusim.Config, tlp, blockSize, reg int) float64 {
	u := float64(tlp*blockSize*reg) / float64(arch.RegFileRegs)
	if u > 1 {
		u = 1
	}
	return u
}
