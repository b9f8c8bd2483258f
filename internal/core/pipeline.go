package core

import (
	"context"

	"crat/internal/backend"
	"crat/internal/gpusim"
	"crat/internal/passes"
	"crat/internal/pool"
	"crat/internal/ptx"
)

// PipelinePassesFor lists the passes the pipeline runs for the named
// backends (nil or empty = every registered backend), in execution order:
// the shared prune pass, each backend's registered pipeline (passes
// already listed by an earlier backend appear once), and the selection
// pass. Unknown names are skipped — callers validate via
// backend.Resolve before compiling.
func PipelinePassesFor(names []string) []backend.PassInfo {
	if len(names) == 0 {
		names = backend.Names()
	}
	out := []backend.PassInfo{
		{Name: "prune", Desc: "design-space pruning: rightmost point per occupancy stair, TLP capped at OptTLP (paper §4.2)"},
	}
	seen := map[string]bool{}
	for _, name := range names {
		bk, ok := backend.Lookup(name)
		if !ok {
			continue
		}
		for _, p := range bk.Passes() {
			if seen[p.Name] {
				continue
			}
			seen[p.Name] = true
			out = append(out, p)
		}
	}
	out = append(out, backend.PassInfo{Name: "tpsc-select", Desc: "TPSC-model selection across surviving candidates of every enabled backend (oracle-select under Options.Oracle)"})
	return out
}

// prunePass implements the paper's §4.2 design-space pruning as the
// pipeline's first pass: rightmost point per occupancy stair, TLP capped at
// OptTLP unless the ablation disables it, dominated register budgets
// removed (the same budget at a lower TLP compiles to identical code with
// less parallelism and can never win).
type prunePass struct {
	a      *Analysis
	arch   gpusim.Config
	opts   Options
	points []backend.Point // output
}

func (p *prunePass) Name() string { return "prune" }

func (p *prunePass) Requires() []passes.Kind { return nil }

func (p *prunePass) Invalidates() []passes.Kind { return nil }

func (p *prunePass) Run(_ *ptx.Kernel, _ *passes.AnalysisManager) error {
	stairs := p.a.Staircase(p.arch)
	seenReg := make(map[int]bool)
	for tlp := len(stairs); tlp >= 1; tlp-- {
		if !p.opts.DisablePruning && tlp > p.a.OptTLP {
			continue
		}
		reg := stairs[tlp]
		if seenReg[reg] {
			continue
		}
		seenReg[reg] = true
		p.points = append(p.points, backend.Point{Reg: reg, TLP: tlp})
	}
	return nil
}

// tpscSelectPass picks the candidate with the smallest TPSC metric; ties
// (e.g. several spill-free points with cost 0) break toward the higher TLP,
// then more registers.
type tpscSelectPass struct {
	d *Decision
}

func (p *tpscSelectPass) Name() string { return "tpsc-select" }

func (p *tpscSelectPass) Requires() []passes.Kind { return nil }

func (p *tpscSelectPass) Invalidates() []passes.Kind { return nil }

func (p *tpscSelectPass) Run(_ *ptx.Kernel, _ *passes.AnalysisManager) error {
	d := p.d
	best := 0
	for i := 1; i < len(d.Candidates); i++ {
		c, b := &d.Candidates[i], &d.Candidates[best]
		switch {
		case c.TPSC < b.TPSC:
			best = i
		case c.TPSC == b.TPSC && c.TLP > b.TLP:
			best = i
		case c.TPSC == b.TPSC && c.TLP == b.TLP && c.Reg > b.Reg:
			best = i
		}
	}
	d.Chosen = d.Candidates[best]
	return nil
}

// oracleSelectPass is the ablation selector: simulate every candidate and
// take the fastest. The candidates are independent kernels, so the sweep
// fans out across Options.Workers; the reduction stays in candidate order
// so the winner (and first error) matches the serial loop.
type oracleSelectPass struct {
	ctx  context.Context
	app  App
	arch gpusim.Config
	opts Options
	d    *Decision
}

func (p *oracleSelectPass) Name() string { return "oracle-select" }

func (p *oracleSelectPass) Requires() []passes.Kind { return nil }

func (p *oracleSelectPass) Invalidates() []passes.Kind { return nil }

func (p *oracleSelectPass) Run(_ *ptx.Kernel, _ *passes.AnalysisManager) error {
	d := p.d
	stats := make([]gpusim.Stats, len(d.Candidates))
	errs := make([]error, len(d.Candidates))
	// Workers below 1 (callers that never set it) stay serial.
	poolErr := pool.RunCtx(p.ctx, max(p.opts.Workers, 1), len(d.Candidates), func(i int) {
		c := &d.Candidates[i]
		stats[i], errs[i] = SimulateKernelCtx(p.ctx, p.app, p.arch, c.Kernel(), c.UsedRegs(), c.TLP)
	})
	for _, e := range errs {
		if e != nil {
			return e
		}
	}
	if poolErr != nil {
		return poolErr
	}
	bestIdx, bestCycles := -1, int64(0)
	for i := range d.Candidates {
		d.Candidates[i].Cycles = stats[i].Cycles
		if bestIdx == -1 || stats[i].Cycles < bestCycles {
			bestIdx, bestCycles = i, stats[i].Cycles
		}
	}
	d.Chosen = d.Candidates[bestIdx]
	return nil
}
