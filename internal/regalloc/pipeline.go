package regalloc

import (
	"fmt"

	"crat/internal/passes"
	"crat/internal/ptx"
)

// The allocator is a pass pipeline over one AnalysisManager:
//
//	[coalesce] -> { color -> spill-insert }* -> color -> phys-rewrite
//
// color is a pure analysis pass (it reads the cached CFG/liveness and
// records its coloring on the pass object); spill-insert mutates the
// working kernel and invalidates the control-flow analyses; phys-rewrite
// produces the physical kernel and rebinds the AnalysisManager to it, so
// pass-wrap hooks observe the allocation's final output.

// coalescePass runs conservative copy coalescing before the first coloring.
type coalescePass struct{ st *allocState }

func (p *coalescePass) Name() string { return "coalesce" }

func (p *coalescePass) Requires() []passes.Kind { return nil }

func (p *coalescePass) Invalidates() []passes.Kind {
	return []passes.Kind{passes.KindCFG, passes.KindUseDef}
}

func (p *coalescePass) Run(k *ptx.Kernel, am *passes.AnalysisManager) error {
	n, err := coalesce(p.st.own(am), p.st.opts.Regs)
	if err != nil {
		return err
	}
	p.st.res.Coalesced = n
	return nil
}

// colorPass runs one build-simplify-select round (Chaitin-Briggs) or one
// linear scan, leaving the coloring (each register's starting slot, -1
// where uncolored) and the spill choice on the pass object for the
// allocation loop. ifr is the interference the round colored from: a
// round handed the interference of the liveness it reads reuses it
// instead of building it again.
type colorPass struct {
	st     *allocState
	ifr    *interference
	slot   []int
	spills []ptx.Reg
}

func (p *colorPass) Name() string { return "color" }

func (p *colorPass) Requires() []passes.Kind {
	return []passes.Kind{passes.KindCFG, passes.KindLiveness}
}

func (p *colorPass) Invalidates() []passes.Kind { return nil }

func (p *colorPass) Run(k *ptx.Kernel, am *passes.AnalysisManager) error {
	lv, err := am.Liveness()
	if err != nil {
		return err
	}
	if p.st.opts.Algorithm == AlgoLinearScan {
		p.slot, p.spills, err = p.st.colorLinear(lv)
		return err
	}
	if p.ifr == nil || p.ifr.lv != lv {
		p.ifr = p.st.interference(lv)
	}
	p.slot, p.spills, err = p.st.color(p.ifr)
	return err
}

// spillInsertPass rewrites the working kernel so the chosen registers live
// in the local-memory SpillStack.
type spillInsertPass struct {
	st     *allocState
	spills []ptx.Reg
}

func (p *spillInsertPass) Name() string { return "spill-insert" }

func (p *spillInsertPass) Requires() []passes.Kind { return nil }

func (p *spillInsertPass) Invalidates() []passes.Kind {
	return []passes.Kind{passes.KindCFG, passes.KindUseDef}
}

func (p *spillInsertPass) Run(k *ptx.Kernel, am *passes.AnalysisManager) error {
	p.st.own(am)
	return p.st.insertSpills(p.spills)
}

// physRewritePass maps the colored kernel onto dense physical registers,
// verifies both the virtual and physical forms (defense in depth: a bug in
// spill insertion or the rewrite must surface as a structured VerifyError,
// not as a downstream simulator fault), and rebinds the AnalysisManager to
// the physical kernel.
type physRewritePass struct {
	st   *allocState
	slot []int
}

func (p *physRewritePass) Name() string { return "phys-rewrite" }

func (p *physRewritePass) Requires() []passes.Kind { return nil }

func (p *physRewritePass) Invalidates() []passes.Kind { return nil }

func (p *physRewritePass) Run(k *ptx.Kernel, am *passes.AnalysisManager) error {
	st := p.st
	st.finish(p.slot)
	if err := ptx.Verify(st.res.Virtual, "spill-insert"); err != nil {
		return err
	}
	if err := ptx.Verify(st.res.Kernel, "regalloc"); err != nil {
		return err
	}
	am.Replace(st.res.Kernel)
	return nil
}

// AllocOptions exposes the run's allocation options so pass-wrap hooks
// (passes.SetGlobalWrap) can filter by budget or ablation flags.
func (p *physRewritePass) AllocOptions() Options { return p.st.opts }

// Allocate colors the kernel's virtual registers into at most opts.Regs
// 32-bit slots per thread, spilling to a local-memory SpillStack when the
// limit is exceeded (paper §5.1). The input kernel is not modified.
func Allocate(k *ptx.Kernel, opts Options) (*Result, error) {
	return AllocateWith(nil, passes.NewAnalysisManager(k), opts)
}

// AllocateWith allocates src's kernel under pm, so callers composing a
// larger pipeline (core, spillopt) share one instrumented manager; a nil pm
// gets a private uninstrumented manager. The allocation runs on a Fork of
// src, so its first color round reads src's CFG and liveness instead of
// building them again, and it copies the kernel only when a pass is about
// to modify it. Neither src's kernel nor its analyses are modified; when
// nothing is coalesced or spilled, Result.Virtual is src's kernel itself.
func AllocateWith(pm *passes.Manager, src *passes.AnalysisManager, opts Options) (*Result, error) {
	if opts.Regs <= 0 {
		return nil, fmt.Errorf("regalloc: non-positive register budget %d", opts.Regs)
	}
	if pm == nil {
		pm = &passes.Manager{}
	}
	st := &allocState{
		opts:    opts,
		k:       src.Kernel(),
		noSpill: make(map[ptx.Reg]bool),
		slots:   make(map[ptx.Reg]SpillSlot),
		baseReg: ptx.NoReg,
		res:     &Result{},
	}
	am := src.Fork(st.k)
	if opts.Coalesce {
		if err := pm.Run(am, &coalescePass{st: st}); err != nil {
			return nil, err
		}
	}
	for iter := 0; iter < maxIterations; iter++ {
		st.res.Iterations = iter + 1
		cp := &colorPass{st: st}
		if err := pm.Run(am, cp); err != nil {
			return nil, err
		}
		if len(cp.spills) == 0 {
			if err := pm.Run(am, &physRewritePass{st: st, slot: cp.slot}); err != nil {
				return nil, err
			}
			return st.res, nil
		}
		if err := pm.Run(am, &spillInsertPass{st: st, spills: cp.spills}); err != nil {
			return nil, err
		}
	}
	return nil, fmt.Errorf("regalloc: did not converge after %d iterations", maxIterations)
}
