// Package passes is the pass-manager IR framework of the CRAT compiler:
// an explicit Pass interface, an AnalysisManager that computes the shared
// dataflow analyses (CFG, liveness, dominators, reconvergence, use-def)
// once per kernel version and invalidates them precisely on transform, and
// a Manager that runs passes with per-pass instrumentation (wall time,
// IR-size deltas, verify-after-every-pass, dump hooks). The compiler (regalloc, spillopt, core), the cycle-level
// simulator (gpusim), and the functional emulator (emu) all obtain their
// static kernel analyses through this package, so there is exactly one
// analysis substrate instead of per-package private copies.
package passes

import (
	"crat/internal/cfg"
	"crat/internal/ptx"
)

// Kind identifies one cached analysis.
type Kind uint8

// Analysis kinds. KindUseDef depends only on the instruction list; every
// other kind derives from the CFG.
const (
	KindCFG Kind = iota
	KindLiveness
	KindDominators
	KindPostDominators
	KindLoopDepth
	KindReconvergence
	KindUseDef
	KindMicroOps
	kindCount
)

// String names the kind for diagnostics.
func (k Kind) String() string {
	switch k {
	case KindCFG:
		return "cfg"
	case KindLiveness:
		return "liveness"
	case KindDominators:
		return "dominators"
	case KindPostDominators:
		return "post-dominators"
	case KindLoopDepth:
		return "loop-depth"
	case KindReconvergence:
		return "reconvergence"
	case KindUseDef:
		return "use-def"
	case KindMicroOps:
		return "micro-ops"
	}
	return "analysis(?)"
}

// derivedFromCFG lists every kind invalidated alongside the CFG.
var derivedFromCFG = []Kind{
	KindLiveness, KindDominators, KindPostDominators, KindLoopDepth, KindReconvergence,
	KindMicroOps,
}

// derivedFromUseDef lists kinds that bake per-instruction register operands
// and so go stale with use-def even when control flow is untouched (e.g. a
// register-renaming rewrite).
var derivedFromUseDef = []Kind{KindMicroOps}

// UseDef is the per-instruction register access summary the simulator's
// scoreboard and the shared kernel analyses consume: for each pc, the
// registers read (guard, sources, memory bases) and the register written
// (ptx.NoReg when the instruction defines nothing). Use slices share one
// backing arena.
type UseDef struct {
	Uses [][]ptx.Reg
	Defs []ptx.Reg
}

// Reconvergence is the SIMT control-flow summary: per-pc branch targets and
// the reconvergence pc of every conditional branch (-1 where not
// applicable). A reconvergence pc equal to len(Insts) means kernel end.
type Reconvergence struct {
	Targets []int
	Reconv  []int
}

// AnalysisManager owns the analyses of one kernel as it flows through a
// pass pipeline. Analyses are computed lazily on first request, memoized,
// and dropped when a transform invalidates them; the version counter
// advances on every invalidation so instrumentation can tell whether a
// pass changed the IR.
type AnalysisManager struct {
	k       *ptx.Kernel
	version uint64

	valid    [kindCount]bool
	graph    *cfg.Graph
	liveness *cfg.Liveness
	doms     []int
	pdoms    []int
	depth    []int
	reconv   *Reconvergence
	usedef   *UseDef
	micro    *MicroStream

	// Computes counts analysis builds by kind; the caching tests assert an
	// unchanged kernel never pays for the same analysis twice.
	Computes [kindCount]int
}

// NewAnalysisManager binds a manager to a kernel with no analyses computed.
func NewAnalysisManager(k *ptx.Kernel) *AnalysisManager {
	return &AnalysisManager{k: k}
}

// Kernel returns the kernel currently bound to the manager — the pipeline's
// notion of "the IR right now". Passes that produce a new kernel object
// rebind it with Replace.
func (am *AnalysisManager) Kernel() *ptx.Kernel { return am.k }

// Version returns the invalidation counter. It advances on Invalidate,
// InvalidateAll, and Replace, so two equal readings bracket a stretch in
// which every cached analysis stayed valid.
func (am *AnalysisManager) Version() uint64 { return am.version }

// Replace rebinds the manager to a new kernel object (a pass produced a
// rewritten kernel rather than mutating in place) and drops every analysis.
func (am *AnalysisManager) Replace(k *ptx.Kernel) {
	am.k = k
	am.InvalidateAll()
}

// InvalidateAll drops every cached analysis.
func (am *AnalysisManager) InvalidateAll() {
	am.version++
	for i := range am.valid {
		am.valid[i] = false
	}
	am.graph, am.liveness, am.doms, am.pdoms, am.depth, am.reconv, am.usedef, am.micro =
		nil, nil, nil, nil, nil, nil, nil, nil
}

// Invalidate drops the named analyses plus everything derived from them
// (invalidating the CFG cascades to all CFG-derived kinds). Passes that
// rewrite instructions wholesale should use InvalidateAll; Invalidate is
// the precise form for transforms with a bounded footprint.
func (am *AnalysisManager) Invalidate(kinds ...Kind) {
	if len(kinds) == 0 {
		return
	}
	am.version++
	drop := func(k Kind) {
		am.valid[k] = false
		switch k {
		case KindCFG:
			am.graph = nil
		case KindLiveness:
			am.liveness = nil
		case KindDominators:
			am.doms = nil
		case KindPostDominators:
			am.pdoms = nil
		case KindLoopDepth:
			am.depth = nil
		case KindReconvergence:
			am.reconv = nil
		case KindUseDef:
			am.usedef = nil
		case KindMicroOps:
			am.micro = nil
		}
	}
	for _, k := range kinds {
		drop(k)
		if k == KindCFG {
			for _, d := range derivedFromCFG {
				drop(d)
			}
		}
		if k == KindUseDef {
			for _, d := range derivedFromUseDef {
				drop(d)
			}
		}
	}
}

// Require computes the listed analyses eagerly (the Manager calls it with a
// pass's declared requirements before running the pass).
func (am *AnalysisManager) Require(kinds ...Kind) error {
	for _, k := range kinds {
		var err error
		switch k {
		case KindCFG:
			_, err = am.CFG()
		case KindLiveness:
			_, err = am.Liveness()
		case KindDominators:
			_, err = am.Dominators()
		case KindPostDominators:
			_, err = am.PostDominators()
		case KindLoopDepth:
			_, err = am.LoopDepth()
		case KindReconvergence:
			_, err = am.Reconvergence()
		case KindUseDef:
			am.UseDef()
		case KindMicroOps:
			_, err = am.MicroOps()
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// CFG returns the kernel's control-flow graph, building it on first use.
func (am *AnalysisManager) CFG() (*cfg.Graph, error) {
	if am.valid[KindCFG] {
		return am.graph, nil
	}
	g, err := cfg.Build(am.k)
	if err != nil {
		return nil, err
	}
	am.graph = g
	am.valid[KindCFG] = true
	am.Computes[KindCFG]++
	return g, nil
}

// Liveness returns the live-variable analysis over the cached CFG.
func (am *AnalysisManager) Liveness() (*cfg.Liveness, error) {
	if am.valid[KindLiveness] {
		return am.liveness, nil
	}
	g, err := am.CFG()
	if err != nil {
		return nil, err
	}
	am.liveness = cfg.ComputeLiveness(g)
	am.valid[KindLiveness] = true
	am.Computes[KindLiveness]++
	return am.liveness, nil
}

// Dominators returns the immediate-dominator array (block 0 is the root).
func (am *AnalysisManager) Dominators() ([]int, error) {
	if am.valid[KindDominators] {
		return am.doms, nil
	}
	g, err := am.CFG()
	if err != nil {
		return nil, err
	}
	am.doms = g.Dominators()
	am.valid[KindDominators] = true
	am.Computes[KindDominators]++
	return am.doms, nil
}

// PostDominators returns the immediate post-dominator array.
func (am *AnalysisManager) PostDominators() ([]int, error) {
	if am.valid[KindPostDominators] {
		return am.pdoms, nil
	}
	g, err := am.CFG()
	if err != nil {
		return nil, err
	}
	am.pdoms = g.PostDominators()
	am.valid[KindPostDominators] = true
	am.Computes[KindPostDominators]++
	return am.pdoms, nil
}

// LoopDepth returns the per-block loop-nesting depth.
func (am *AnalysisManager) LoopDepth() ([]int, error) {
	if am.valid[KindLoopDepth] {
		return am.depth, nil
	}
	g, err := am.CFG()
	if err != nil {
		return nil, err
	}
	am.depth = g.LoopDepth()
	am.valid[KindLoopDepth] = true
	am.Computes[KindLoopDepth]++
	return am.depth, nil
}

// InstLoopDepth returns the loop depth of every instruction, derived from
// the cached block depths.
func (am *AnalysisManager) InstLoopDepth() ([]int, error) {
	bd, err := am.LoopDepth()
	if err != nil {
		return nil, err
	}
	g, err := am.CFG()
	if err != nil {
		return nil, err
	}
	out := make([]int, len(am.k.Insts))
	for i := range out {
		out[i] = bd[g.BlockOf(i)]
	}
	return out, nil
}

// Reconvergence returns the per-pc branch-target and reconvergence arrays
// the SIMT executors (gpusim, emu) consume.
func (am *AnalysisManager) Reconvergence() (*Reconvergence, error) {
	if am.valid[KindReconvergence] {
		return am.reconv, nil
	}
	g, err := am.CFG()
	if err != nil {
		return nil, err
	}
	k := am.k
	reconvMap := g.ReconvergencePoints()
	labels := make(map[string]int)
	for i := range k.Insts {
		if l := k.Insts[i].Label; l != "" {
			labels[l] = i
		}
	}
	r := &Reconvergence{
		Targets: make([]int, len(k.Insts)),
		Reconv:  make([]int, len(k.Insts)),
	}
	for i := range k.Insts {
		r.Targets[i] = -1
		if k.Insts[i].Op == ptx.OpBra {
			if t, ok := labels[k.Insts[i].Target]; ok {
				r.Targets[i] = t
			}
		}
		r.Reconv[i] = -1
		if rc, ok := reconvMap[i]; ok {
			r.Reconv[i] = rc
		}
	}
	am.reconv = r
	am.valid[KindReconvergence] = true
	am.Computes[KindReconvergence]++
	return r, nil
}

// UseDef returns the per-pc register access summary. It needs no CFG, so it
// survives control-flow-only invalidation.
func (am *AnalysisManager) UseDef() *UseDef {
	if am.valid[KindUseDef] {
		return am.usedef
	}
	k := am.k
	n := len(k.Insts)
	ud := &UseDef{
		Uses: make([][]ptx.Reg, n),
		Defs: make([]ptx.Reg, n),
	}
	var arena []ptx.Reg // one backing array for all use slices
	for i := range k.Insts {
		in := &k.Insts[i]
		start := len(arena)
		arena = in.Uses(arena)
		ud.Uses[i] = arena[start:len(arena):len(arena)]
		ud.Defs[i] = ptx.NoReg
		if in.Dst.Kind == ptx.OperandReg {
			ud.Defs[i] = in.Dst.Reg
		}
	}
	am.usedef = ud
	am.valid[KindUseDef] = true
	am.Computes[KindUseDef]++
	return ud
}
