package core

import (
	"context"
	"fmt"

	"crat/internal/backend"
	"crat/internal/gpusim"
	"crat/internal/oracle"
	"crat/internal/passes"
	"crat/internal/ptx"
	"crat/internal/regalloc"
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

// Options configures the Optimize pipeline.
type Options struct {
	Arch gpusim.Config
	// OptTLP overrides the optimal TLP (0 = obtain per OptTLPSource).
	OptTLP int
	// StaticOptTLP uses the static code-analysis estimator instead of
	// profiling (CRAT-static, paper §7.6).
	StaticOptTLP bool
	// SpillShared disables (false) or enables (true) the shared-memory
	// spilling optimization; ModeCRATLocal corresponds to false. It only
	// selects the implied backend when Backends is empty.
	SpillShared bool
	// Backends names the candidate-generation backends whose candidates
	// compete under TPSC/oracle selection (internal/backend registry).
	// Order matters: full TPSC ties break toward the earlier backend.
	// Empty means the mode-implied default: "crat" when SpillShared,
	// "crat-local" otherwise.
	Backends []string
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
	// pipeline pass, failing fast with the offending pass named (the
	// pass-smoke gate; cratc -verify-passes).
	VerifyEachPass bool
	// OracleEachPass spot-checks every IR-changing pass against the
	// differential oracle (pass input vs pass output). Expensive; a
	// debugging aid for bisecting a miscompile to one pass.
	OracleEachPass bool
	// DumpAfter, when set, receives the working kernel after every pass
	// (cratc -dump-after filters by pass name inside the hook).
	DumpAfter func(pass string, k *ptx.Kernel)
	// Analysis is the app's resource analysis, already computed by Analyze
	// for the same App and Arch (nil = analyze here). The pipeline works on
	// a copy with OptTLP cleared, exactly what Analyze would return, so one
	// analysis can serve many compiles.
	Analysis *Analysis
	// Costs overrides the microbenchmarked per-access latencies
	// (zero value = measure on Arch).
	Costs gpusim.Costs
	// Workers bounds the goroutines used for independent simulations (the
	// OptTLP profiling sweep and the Oracle candidate sweep). 0 or 1 keeps
	// the pipeline fully serial; results are identical at any setting.
	Workers int
}

// profileWorkers maps the Workers option to a pool size: the zero value
// (callers that never set it) stays serial.
func (o Options) profileWorkers() int {
	if o.Workers < 1 {
		return 1
	}
	return o.Workers
}

// analyze returns a private copy of the supplied analysis, or analyzes
// the app when none was supplied. The pipeline writes OptTLP into its
// analysis, so it never works on the caller's.
func (o Options) analyze(app App) (*Analysis, error) {
	if o.Analysis == nil {
		return Analyze(app, o.Arch)
	}
	a := *o.Analysis
	a.OptTLP = 0
	return &a, nil
}

// Candidate is one surviving design point with its compiled kernel.
type Candidate struct {
	// Backend names the strategy that produced the candidate ("crat",
	// "crat-local", "regdem", ...; "baseline" for the degraded-mode
	// fallback, "" for the untouched baseline modes).
	Backend  string
	Reg      int // register per-thread budget (rightmost point of the stair)
	TLP      int
	Alloc    *regalloc.Result
	Spill    *spillopt.Result // nil when spilling optimization disabled
	Overhead ptx.SpillOverhead
	TPSC     float64
	// Demoted counts registers the regdem backend rewrote to shared
	// memory before allocation (0 for other backends).
	Demoted int
	// Cycles is filled only under Options.Oracle.
	Cycles int64
}

// Kernel returns the executable kernel of the candidate.
func (c Candidate) Kernel() *ptx.Kernel {
	if c.Spill != nil {
		return c.Spill.Alloc.Kernel
	}
	return c.Alloc.Kernel
}

// UsedRegs returns the per-thread register usage of the final kernel.
func (c Candidate) UsedRegs() int {
	if c.Spill != nil {
		return c.Spill.Alloc.UsedRegs
	}
	return c.Alloc.UsedRegs
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
	// ProfileRuns counts simulations spent determining OptTLP (the
	// profiling overhead of paper §7.7); static estimation uses 1.
	ProfileRuns int
	// Degraded is set when Options.VerifyEquivalence found the chosen
	// candidate semantically divergent and the pipeline fell back to the
	// baseline allocation.
	Degraded bool
	// Divergence is the oracle report that triggered the degradation
	// (nil unless Degraded).
	Divergence *oracle.Divergence
}

// Optimize runs the full CRAT pipeline on one app: analysis, OptTLP,
// pruning, per-candidate register allocation and spilling optimization, and
// TPSC selection.
func Optimize(app App, opts Options) (*Decision, error) {
	return OptimizeCtx(context.Background(), app, opts)
}

// OptimizeCtx is Optimize under a context: the profiling and Oracle sweeps
// observe cancellation and wall-clock deadlines. With Options.OptTLP set and
// Options.Costs supplied (and Oracle off), the pipeline runs no simulations
// at all — the checkpoint/resume path relies on that to rebuild decisions
// deterministically from persisted stats.
func OptimizeCtx(ctx context.Context, app App, opts Options) (*Decision, error) {
	if err := ptx.Verify(app.Kernel, "input"); err != nil {
		return nil, err
	}
	// Resolve the backend set up front so a bad -backend flag fails before
	// any profiling simulations run.
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

	// Determine OptTLP.
	switch {
	case opts.OptTLP > 0:
		a.OptTLP = opts.OptTLP
	case opts.StaticOptTLP:
		in, err := MeasureStaticInputs(ctx, app, arch, a)
		if err != nil {
			return nil, err
		}
		a.OptTLP = EstimateOptTLP(a, arch, in)
		d.ProfileRuns = 1
	default:
		opt, runs, err := ProfileOptTLPNCtx(ctx, app, arch, a, opts.profileWorkers())
		if err != nil {
			return nil, err
		}
		a.OptTLP = opt
		d.ProfileRuns = len(runs)
	}
	if a.OptTLP > a.MaxTLP {
		a.OptTLP = a.MaxTLP
	}

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
	// manager: prune, then every enabled backend's candidate pipeline over
	// the shared design points, then selection across the union.
	pm := opts.passManager(app)
	am := passes.NewAnalysisManager(app.Kernel)

	pr := &prunePass{a: a, arch: arch, opts: opts}
	if err := pm.Run(am, pr); err != nil {
		return nil, err
	}
	req := backend.Request{
		AppName:             app.Name,
		Kernel:              app.Kernel,
		Arch:                arch,
		BlockSize:           a.BlockSize,
		ShmSize:             a.ShmSize,
		OptTLP:              a.OptTLP,
		Points:              make([]backend.Point, len(pr.points)),
		Coalesce:            opts.Coalesce,
		Split:               opts.Split,
		UnweightedGain:      opts.UnweightedGain,
		UnweightedSpillCost: opts.UnweightedSpillCost,
	}
	for i, pt := range pr.points {
		req.Points[i] = backend.Point{Reg: pt.Reg, TLP: pt.TLP}
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
			cand := Candidate{
				Backend:  bc.Backend,
				Reg:      bc.Reg,
				TLP:      bc.TLP,
				Alloc:    bc.Alloc,
				Spill:    bc.Spill,
				Overhead: bc.Overhead,
				Demoted:  bc.Demoted,
			}
			cand.TPSC = TPSC(cand.TLP, a.BlockSize, arch.MaxThreadsPerSM, cand.Overhead, d.Costs)
			d.Candidates = append(d.Candidates, cand)
		}
	}
	if len(d.Candidates) == 0 {
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
	d.Backend = d.Chosen.Backend
	if opts.VerifyEquivalence {
		if err := verifyDecision(app, arch, a, d, opts); err != nil {
			return nil, err
		}
		d.Backend = d.Chosen.Backend
	}
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

// modePlan is the compile-only product of planModeCtx: the decision plus
// the exact launch parameters RunMode would hand to the simulator.
type modePlan struct {
	d      *Decision
	kernel *ptx.Kernel
	regs   int
	tlp    int // TLPLimit for the simulator (0 = hardware maximum)
}

// planModeCtx performs everything RunMode does except the final
// simulation: analysis, OptTLP determination, allocation, and (for the CRAT
// modes) the full optimization pipeline. With Options.OptTLP and
// Options.Costs supplied it is purely deterministic compilation — no
// simulator cycles — which is what lets checkpoint resume rebuild a
// Decision byte-identically from persisted stats.
func planModeCtx(ctx context.Context, app App, mode Mode, opts Options) (*modePlan, error) {
	if err := ptx.Verify(app.Kernel, "input"); err != nil {
		return nil, err
	}
	arch := opts.Arch
	switch mode {
	case ModeMaxTLP, ModeOptTLP:
		a, err := opts.analyze(app)
		if err != nil {
			return nil, err
		}
		// The baseline modes get the same instrumented pass manager as the
		// CRAT modes, so -verify-passes and per-pass timing cover them too.
		alloc, err := regalloc.AllocateWith(opts.passManager(app), app.Kernel, regalloc.Options{Regs: a.DefaultReg})
		if err != nil {
			return nil, err
		}
		tlp := 0 // hardware maximum
		if mode == ModeOptTLP {
			switch {
			case opts.OptTLP > 0:
				a.OptTLP = opts.OptTLP
			case opts.StaticOptTLP:
				in, err := MeasureStaticInputs(ctx, app, arch, a)
				if err != nil {
					return nil, err
				}
				a.OptTLP = EstimateOptTLP(a, arch, in)
			default:
				opt, _, err := ProfileOptTLPNCtx(ctx, app, arch, a, opts.profileWorkers())
				if err != nil {
					return nil, err
				}
				a.OptTLP = opt
			}
			tlp = a.OptTLP
		}
		d := &Decision{App: app, Arch: arch, Analysis: a}
		d.Chosen = Candidate{Reg: a.DefaultReg, TLP: tlp, Alloc: alloc, Overhead: alloc.Kernel.SpillOverhead()}
		if tlp == 0 {
			d.Chosen.TLP = a.MaxTLP
		}
		if opts.VerifyEquivalence {
			// DefaultReg allocation can spill too; the baseline modes get
			// the same oracle gate and degraded-mode fallback as CRAT.
			if err := verifyDecision(app, arch, a, d, opts); err != nil {
				return nil, err
			}
			if d.Degraded {
				return &modePlan{d: d, kernel: d.Chosen.Kernel(), regs: d.Chosen.UsedRegs(), tlp: tlp}, nil
			}
		}
		return &modePlan{d: d, kernel: alloc.Kernel, regs: alloc.UsedRegs, tlp: tlp}, nil
	case ModeCRATLocal, ModeCRAT:
		o := opts
		o.SpillShared = mode == ModeCRAT
		d, err := OptimizeCtx(ctx, app, o)
		if err != nil {
			return nil, err
		}
		return &modePlan{d: d, kernel: d.Chosen.Kernel(), regs: d.Chosen.UsedRegs(), tlp: d.Chosen.TLP}, nil
	}
	return nil, fmt.Errorf("core: unknown mode %d", mode)
}

// CompileModeCtx builds the Decision for one comparison mode without the
// final simulation. Callers that already hold the mode's simulated stats
// (checkpoint resume) use it to reconstitute the full decision
// deterministically; Options.OptTLP and Options.Costs should be set so no
// profiling simulations run.
func CompileModeCtx(ctx context.Context, app App, mode Mode, opts Options) (*Decision, error) {
	pl, err := planModeCtx(ctx, app, mode, opts)
	if err != nil {
		return nil, err
	}
	return pl.d, nil
}

// RunMode builds and simulates the kernel for one comparison mode,
// returning the stats and the effective (reg, TLP) configuration.
func RunMode(app App, mode Mode, opts Options) (gpusim.Stats, *Decision, error) {
	return RunModeCtx(context.Background(), app, mode, opts)
}

// RunModeCtx is RunMode under a context: profiling sweeps and the final
// simulation observe cancellation and deadlines. On a simulation fault the
// compiled Decision is still returned alongside the error, matching the
// historical RunMode contract.
func RunModeCtx(ctx context.Context, app App, mode Mode, opts Options) (gpusim.Stats, *Decision, error) {
	pl, err := planModeCtx(ctx, app, mode, opts)
	if err != nil {
		return gpusim.Stats{}, nil, err
	}
	st, err := SimulateKernelCtx(ctx, app, opts.Arch, pl.kernel, pl.regs, pl.tlp)
	return st, pl.d, err
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
