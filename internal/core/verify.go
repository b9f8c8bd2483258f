package core

import (
	"fmt"

	"crat/internal/backend"
	"crat/internal/gpusim"
	"crat/internal/oracle"
	"crat/internal/regalloc"
)

// baselineCandidate builds the degraded-mode fallback: a spill-free
// allocation at MaxReg with no shared-memory spilling — the most
// conservative rewrite the pipeline can emit (a pure register rename). Its
// TLP is the hardware occupancy at that register usage.
func baselineCandidate(app App, arch gpusim.Config, a *Analysis) (*Candidate, error) {
	alloc, err := regalloc.Allocate(app.Kernel, regalloc.Options{Regs: a.MaxReg})
	if err != nil {
		return nil, fmt.Errorf("core: %s: baseline fallback allocation: %w", app.Name, err)
	}
	tlp := arch.Occupancy(alloc.UsedRegs, a.ShmSize, a.BlockSize)
	if tlp < 1 {
		tlp = 1
	}
	return &Candidate{Candidate: backend.Candidate{Backend: "baseline", Reg: a.MaxReg, TLP: tlp, Alloc: alloc, Overhead: alloc.Kernel.SpillOverhead()}}, nil
}

// verifyDecision runs the differential oracle over the chosen candidate's
// rewrite chain (original → allocated → spill-optimized). On a divergence
// the decision is degraded in place: the chosen candidate is replaced with
// the verified baseline allocation and the Divergence recorded, so the
// pipeline completes with a correct (if unoptimized) kernel rather than
// shipping a miscompile or dying. A non-nil error means verification could
// not establish a correct kernel at all — the reference faulted, or even
// the baseline diverges.
func verifyDecision(app App, arch gpusim.Config, a *Analysis, d *Decision, opts Options) error {
	// When the app carries a Setup provider (all seed workloads do) the
	// oracle replays the app's real inputs; otherwise it generates
	// VerifyRuns seeded input sets.
	oopts := oracle.Options{Grid: app.Grid, Block: app.Block, Runs: opts.VerifyRuns, Seed: opts.VerifySeed, Setup: app.Setup}
	div, err := oracle.CheckChain(app.Kernel, d.Chosen.Alloc.Kernel, d.Chosen.Kernel(), oopts)
	if err != nil {
		return fmt.Errorf("core: %s: equivalence check: %w", app.Name, err)
	}
	if div == nil {
		return nil
	}
	fb, err := baselineCandidate(app, arch, a)
	if err != nil {
		return fmt.Errorf("core: %s: %v; %w", app.Name, div, err)
	}
	fbDiv, err := oracle.Check(app.Kernel, fb.Kernel(), "baseline", oopts)
	if err != nil {
		return fmt.Errorf("core: %s: baseline equivalence check: %w", app.Name, err)
	}
	if fbDiv != nil {
		// Nothing trustworthy to fall back to; this is a hard failure.
		return fmt.Errorf("core: %s: baseline allocation also diverges: %w", app.Name, fbDiv)
	}
	fb.TPSC = TPSC(fb.TLP, a.BlockSize, arch.MaxThreadsPerSM, fb.Overhead, d.Costs)
	d.Degraded = true
	d.Divergence = div
	d.Chosen = *fb
	return nil
}
