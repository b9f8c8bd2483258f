package backend

// The crat and crat-local backends are the paper's original strategy,
// ported verbatim from the pre-refactor core.buildCandidate loop: allocate
// at the point's budget (spills go to the local-memory SpillStack), then —
// for crat — relocate spill sub-stacks into spare shared memory via the
// Algorithm 1 knapsack. Candidate order, pass sequence, and pass inputs
// are identical to the historical pipeline, which keeps golden output
// byte-identical when only these backends are enabled.

import (
	"crat/internal/passes"
	"crat/internal/spillopt"
)

func init() {
	Register(cratBackend{shared: true})
	Register(cratBackend{shared: false})
}

// cratBackend implements the CRAT strategy; shared selects whether the
// shared-memory spilling optimization runs (crat) or spills stay in local
// memory (crat-local, the paper's CRAT-local mode).
type cratBackend struct {
	shared bool
}

func (b cratBackend) Name() string {
	if b.shared {
		return "crat"
	}
	return "crat-local"
}

func (b cratBackend) Description() string {
	if b.shared {
		return "allocate at the budget, then knapsack spill sub-stacks into spare shared memory (paper Algorithm 1)"
	}
	return "allocate at the budget with local-memory spilling only (paper CRAT-local)"
}

func (b cratBackend) Passes() []PassInfo {
	out := []PassInfo{
		{"coalesce", "conservative copy coalescing before the first coloring (Options.Coalesce; per candidate)"},
		{"color", "Chaitin-Briggs coloring (or linear scan) over the cached CFG and liveness (per candidate)"},
		{"spill-insert", "rewrites uncolorable registers onto the local-memory SpillStack (per candidate)"},
		{"phys-rewrite", "virtual-to-physical register rewrite; verifies and emits the allocated kernel (per candidate)"},
	}
	if b.shared {
		out = append(out, PassInfo{"shm-knapsack", "spill-stack knapsack placement into spare shared memory (paper Algorithm 1; per candidate)"})
	}
	return out
}

// Candidates compiles one candidate per design point, dropping infeasible
// budgets and failing fast on pipeline faults, exactly as the historical
// Optimize loop did.
func (b cratBackend) Candidates(pm *passes.Manager, req Request) ([]Candidate, error) {
	in := req.input()
	var out []Candidate
	for _, pt := range req.Points {
		c, err := b.build(pm, req, in, pt)
		if err != nil {
			if IsPipelineFault(err) {
				// A pass emitted unverifiable IR or diverged from the
				// oracle: a compiler bug, not an infeasible budget.
				return nil, err
			}
			// Infeasible register budgets are simply not candidates.
			continue
		}
		out = append(out, *c)
	}
	return out, nil
}

func (b cratBackend) build(pm *passes.Manager, req Request, in *Input, pt Point) (*Candidate, error) {
	allocOpts := req.allocOptions(pt)
	alloc, err := in.Allocate(pm, allocOpts)
	if err != nil {
		return nil, err
	}
	c := &Candidate{Backend: b.Name(), Reg: pt.Reg, TLP: pt.TLP, Alloc: alloc, Overhead: alloc.Kernel.SpillOverhead()}
	if !b.shared {
		return c, nil
	}
	spare := SpareShm(req.Arch, req.ShmSize, pt.TLP)
	res, err := spillopt.OptimizeWith(pm, alloc, allocOpts, spillopt.Options{
		SpareShmBytes:  spare,
		BlockSize:      req.BlockSize,
		Split:          req.Split,
		UnweightedGain: req.Unweighted,
	})
	if err != nil {
		return nil, err
	}
	c.Spill = res
	c.Overhead = res.Overhead
	return c, nil
}
