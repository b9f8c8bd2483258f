package regalloc

import (
	"errors"
	"fmt"
	"slices"
	"sort"

	"crat/internal/cfg"
	"crat/internal/passes"
	"crat/internal/ptx"
)

// SpillStackName is the local-memory array that holds spilled variables
// (paper Listing 4).
const SpillStackName = "SpillStack"

// ErrInfeasible is returned when the register limit is too small to hold
// even the unspillable values (spill temporaries and addressing registers).
var ErrInfeasible = errors.New("regalloc: register limit infeasible")

// Algorithm selects the allocation algorithm.
type Algorithm uint8

// Allocation algorithms. AlgoChaitin is the paper's Chaitin-Briggs
// graph-coloring allocator; AlgoLinearScan is the independent reference
// allocator used to cross-validate spill volume (paper Figure 12).
const (
	AlgoChaitin Algorithm = iota
	AlgoLinearScan
)

// String names the algorithm.
func (a Algorithm) String() string {
	if a == AlgoLinearScan {
		return "linear-scan"
	}
	return "chaitin-briggs"
}

// Options configures an allocation run.
type Options struct {
	// Regs is the per-thread budget in 32-bit register slots — the
	// paper's "register per-thread" knob.
	Regs int
	// Algorithm selects the allocator (default Chaitin-Briggs).
	Algorithm Algorithm
	// Coalesce runs conservative (Briggs) copy coalescing before coloring:
	// register-to-register movs between non-interfering names are
	// eliminated when the merge provably stays colorable. Off by default;
	// most useful on externally supplied SSA-style PTX.
	Coalesce bool
	// UnweightedSpillCost disables the 10^loop-depth weighting of spill
	// costs (ablation knob).
	UnweightedSpillCost bool
}

// maxIterations bounds the build-color-spill loop.
const maxIterations = 32

// SpillSlot describes one spilled virtual register's slot in the spill
// stack.
type SpillSlot struct {
	VReg   ptx.Reg  // register in the *virtual* (pre-allocation) kernel
	Type   ptx.Type // value type (determines the sub-stack, paper Alg. 1)
	Offset int64    // byte offset within the spill stack
	Loads  int      // static reload sites inserted
	Stores int      // static store sites inserted
	Weight float64  // loop-depth-weighted access count (spill "gain" basis)
}

// Result is the outcome of an allocation.
type Result struct {
	// Kernel is the rewritten kernel with physical registers and spill
	// code. Physical register names are dense per class.
	Kernel *ptx.Kernel
	// Virtual is the colorable kernel before the physical rewrite: spill
	// code inserted, virtual register names retained. The shared-memory
	// spilling optimization rewrites a clone of this form. When nothing
	// was coalesced or spilled it is the input kernel itself, not a copy.
	Virtual *ptx.Kernel
	// UsedRegs is the number of 32-bit register slots the allocation
	// actually uses per thread (the achieved "reg").
	UsedRegs int
	// UsedPreds is the number of predicate registers used.
	UsedPreds int
	// Spills lists the spilled virtual registers.
	Spills []SpillSlot
	// SpillStackBytes is the spill stack size per thread.
	SpillStackBytes int64
	// SpillLoads/SpillStores are static counts of inserted local-memory
	// spill instructions; AddrInsts counts inserted address-computation
	// instructions (paper §6 Num_others).
	SpillLoads  int
	SpillStores int
	AddrInsts   int
	// Iterations is the number of build-color-spill rounds.
	Iterations int
	// Coalesced counts copies eliminated by the optional coalescing pass.
	Coalesced int
	// Assignment maps virtual registers of the Virtual kernel to their
	// starting 32-bit slot (predicates map to predicate indices).
	Assignment map[ptx.Reg]int
	// BaseReg is the 64-bit SpillStack base register in the Virtual
	// kernel, or NoReg when nothing spilled. Spill instructions are
	// exactly the ld/st.local whose address base is BaseReg.
	BaseReg ptx.Reg
}

// allocState carries state across build-color-spill iterations.
type allocState struct {
	opts    Options
	k       *ptx.Kernel // working kernel, virtual names: the input until own
	owned   bool        // k is the allocation's private copy
	noSpill map[ptx.Reg]bool
	slots   map[ptx.Reg]SpillSlot // spilled vregs (from all rounds)
	stack   int64                 // spill stack bytes used so far
	baseReg ptx.Reg               // 64-bit SpillStack base register, or NoReg
	res     *Result
}

// MaxReg returns the MaxReg parameter of paper Table 1, obtained through
// dataflow analysis: the 32-bit slots used by the first spill-free
// coloring round at a budget at or above the unconstrained count (the
// slots a round at a budget of 4096 uses). It runs color rounds only, on
// k itself: the round at 4096, then one round per budget upward from the
// slots it used. It builds no physical kernel; usedSlots counts exactly
// what the physical rewrite would.
//
// The result is not always a spill-free budget. A spill-free round at
// budget B can use fewer than B slots, and Allocate at that smaller count
// can spill: 206 of the 2,000 ptxgen kernels of seeds 0-1999 at block 64
// do, none of the Table-3 kernels does.
func MaxReg(k *ptx.Kernel) (int, error) {
	return MaxRegWith(passes.NewAnalysisManager(k))
}

// MaxRegWith is MaxReg over am's kernel and cached analyses. Every round
// colors from one liveness, so the rounds share one interference graph
// and one set of spill weights.
func MaxRegWith(am *passes.AnalysisManager) (int, error) {
	k := am.Kernel()
	pm := &passes.Manager{}
	var ifr *interference
	// round colors k under budget and returns the slots used, or spilled
	// when the round chose spills.
	round := func(budget int) (used int, spilled bool, err error) {
		st := &allocState{opts: Options{Regs: budget}, k: k}
		cp := &colorPass{st: st, ifr: ifr}
		if err := pm.Run(am, cp); err != nil {
			return 0, false, err
		}
		ifr = cp.ifr
		return usedSlots(k, cp.slot), len(cp.spills) > 0, nil
	}
	unconstrained, _, err := round(4096)
	if err != nil {
		return 0, err
	}
	for budget := unconstrained; ; budget++ {
		used, spilled, err := round(budget)
		if err == nil && !spilled {
			return used, nil
		}
		if budget > unconstrained+64 {
			// Defensive bound; the unconstrained coloring fits in
			// unconstrained slots, so a spill-free packing close above it
			// must exist.
			return 0, fmt.Errorf("regalloc: no spill-free budget near %d", unconstrained)
		}
	}
}

// usedSlots returns the 32-bit slots a coloring occupies, counted as
// rewritePhysical counts them: one past the highest slot any colored
// 32-bit register reaches, two for a 64-bit one. Predicates and registers
// no instruction references are never colored, so they count nothing.
func usedSlots(k *ptx.Kernel, slot []int) int {
	used := 0
	for r, s := range slot {
		if s >= 0 {
			used = max(used, s+k.RegType(ptx.Reg(r)).Class().Slots())
		}
	}
	return used
}

// interference is what a coloring round reads from one liveness: the
// interference graph and the per-register spill weights. Both are
// read-only once built, so rounds over the same liveness share them.
type interference struct {
	lv      *cfg.Liveness
	ig      *igraph
	weights []float64
}

// interference builds the round inputs of st's kernel over lv.
func (st *allocState) interference(lv *cfg.Liveness) *interference {
	ifr := &interference{lv: lv, ig: buildIGraph(st.k, lv)}
	if st.opts.UnweightedSpillCost {
		ifr.weights = unweightedCounts(st.k)
	} else {
		ifr.weights = lv.AccessWeights()
	}
	return ifr
}

// color runs one build-simplify-select round over ifr. It returns the
// coloring (each register's starting slot, -1 where uncolored) and the set
// of registers chosen for spilling (empty when the coloring succeeded).
//
// Simplify keeps each live node's squeeze (slots its remaining neighbours
// can block) and degree in dense slices and updates them as nodes leave the
// graph, so a pick costs one scan of the nodes instead of one adjacency walk
// per node.
func (st *allocState) color(ifr *interference) ([]int, []ptx.Reg, error) {
	ig, weights := ifr.ig, ifr.weights

	K := st.opts.Regs
	n := st.k.NumRegs()
	noSpill := make([]bool, n)
	for r := range st.noSpill {
		noSpill[r] = true
	}
	removed := make([]bool, n)
	squeeze := make([]int, n)
	degree := make([]int, n)
	for _, r := range ig.nodes {
		squeeze[r] = ig.squeeze(r)
		degree[r] = len(ig.adj[r])
	}
	order := make([]ptx.Reg, 0, len(ig.nodes)) // simplification stack (pop in reverse)

	for len(order) < len(ig.nodes) {
		// Pick a trivially colorable node (deterministically: smallest id).
		picked := ptx.NoReg
		for _, r := range ig.nodes {
			if !removed[r] && squeeze[r] <= K-ig.slots(r) {
				picked = r
				break
			}
		}
		if picked == ptx.NoReg {
			// Blocked: choose a spill candidate with minimal
			// weight/degree (Chaitin heuristic); push it optimistically
			// (Briggs) — it may still receive a color.
			bestMetric := 0.0
			for _, r := range ig.nodes {
				if removed[r] || noSpill[r] {
					continue
				}
				m := weights[r] / float64(max(degree[r], 1))
				if picked == ptx.NoReg || m < bestMetric {
					picked = r
					bestMetric = m
				}
			}
			if picked == ptx.NoReg {
				// Only unspillable nodes remain and none is trivially
				// colorable: the budget cannot hold the spill machinery.
				return nil, nil, ErrInfeasible
			}
		}
		removed[picked] = true
		order = append(order, picked)
		w := ig.slots(picked)
		for _, m := range ig.adj[picked] {
			squeeze[m] -= w
			degree[m]--
		}
	}

	// Select phase: pop in reverse order, assign lowest feasible slot run.
	slot := make([]int, n) // starting slot per register, -1 = uncolored
	for i := range slot {
		slot[i] = -1
	}
	blocked := make([]bool, K) // findSlot scratch
	var spills []ptx.Reg
	for i := len(order) - 1; i >= 0; i-- {
		r := order[i]
		s := st.findSlot(ig, r, slot, blocked)
		if s < 0 {
			if noSpill[r] {
				// An unspillable node (spill temporary or addressing
				// register) failed to color: free a slot by spilling its
				// cheapest spillable neighbor instead. Only when no such
				// neighbor exists is the budget genuinely infeasible.
				victim := st.cheapestSpillableNeighbor(ig, r, weights, spills)
				if victim == ptx.NoReg {
					return nil, nil, ErrInfeasible
				}
				spills = append(spills, victim)
				continue
			}
			spills = append(spills, r)
			continue
		}
		slot[r] = s
	}
	return slot, spills, nil
}

// cheapestSpillableNeighbor picks the interference neighbor of r with the
// lowest spill metric that is spillable and not already queued for
// spilling (ties go to the lowest register). It returns NoReg when none
// exists.
func (st *allocState) cheapestSpillableNeighbor(ig *igraph, r ptx.Reg, weights []float64, queued []ptx.Reg) ptx.Reg {
	best := ptx.NoReg
	bestMetric := 0.0
	for _, n := range ig.adj[r] {
		if st.noSpill[n] || slices.Contains(queued, n) {
			continue
		}
		m := weights[n] / float64(max(len(ig.adj[n]), 1))
		if best == ptx.NoReg || m < bestMetric {
			best = n
			bestMetric = m
		}
	}
	return best
}

// findSlot returns the lowest starting slot where r fits given its already-
// colored interference neighbors (slot[n] >= 0), or -1 if none exists within
// the budget. blocked is all-false scratch of the budget's length and is
// left that way.
func (st *allocState) findSlot(ig *igraph, r ptx.Reg, slot []int, blocked []bool) int {
	K := st.opts.Regs
	hi := 0 // blocked[:hi] holds every mark
	for _, n := range ig.adj[r] {
		if s := slot[n]; s >= 0 {
			e := min(s+ig.slots(n), K)
			for i := s; i < e; i++ {
				blocked[i] = true
			}
			hi = max(hi, e)
		}
	}
	defer clear(blocked[:hi])
	w := ig.slots(r)
	for s := 0; s+w <= K; s++ {
		ok := true
		for i := s; i < s+w; i++ {
			if blocked[i] {
				ok = false
				break
			}
		}
		if ok {
			return s
		}
	}
	return -1
}

// own gives the allocation a private copy of its kernel before a pass
// modifies it and rebinds am, the allocation's manager, to the copy, so
// an allocation that neither coalesces nor spills copies nothing. The copy
// is identical to the kernel am was bound to, and the modifying pass
// invalidates the analyses it would change.
func (st *allocState) own(am *passes.AnalysisManager) *ptx.Kernel {
	if !st.owned {
		st.k, st.owned = st.k.Clone(), true
		am.Replace(st.k)
	}
	return st.k
}

// finish rewrites the colored kernel to physical registers and fills the
// result.
func (st *allocState) finish(slot []int) {
	// st.k is the allocation's private copy or the unmodified input, and
	// rewritePhysical writes a new kernel, so the colored kernel is handed
	// out as is.
	st.res.Virtual = st.k
	st.res.Assignment = make(map[ptx.Reg]int, len(slot))
	for r, s := range slot {
		if s >= 0 {
			st.res.Assignment[ptx.Reg(r)] = s
		}
	}
	st.res.BaseReg = st.baseReg
	st.res.Kernel, st.res.UsedRegs, st.res.UsedPreds = rewritePhysical(st.k, slot)
	for _, s := range st.slots {
		st.res.Spills = append(st.res.Spills, s)
	}
	sort.Slice(st.res.Spills, func(a, b int) bool {
		return st.res.Spills[a].Offset < st.res.Spills[b].Offset
	})
	st.res.SpillStackBytes = st.stack
}

// unweightedCounts counts static access sites without loop weighting.
func unweightedCounts(k *ptx.Kernel) []float64 {
	out := make([]float64, k.NumRegs())
	var buf []ptx.Reg
	for i := range k.Insts {
		buf = k.Insts[i].Uses(buf[:0])
		for _, r := range buf {
			out[r]++
		}
		buf = k.Insts[i].Defs(buf[:0])
		for _, r := range buf {
			out[r]++
		}
	}
	return out
}
