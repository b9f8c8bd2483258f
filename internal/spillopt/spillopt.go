// Package spillopt implements the spilling optimization of the CRAT paper
// (Algorithm 1, §5.3): it splits the local-memory spill stack into
// sub-stacks by data type/width, estimates the access gain of each
// sub-stack, and solves a 0-1 knapsack by dynamic programming to decide
// which sub-stacks to move into spare shared memory — the fast on-chip
// alternative to long-latency local memory.
//
// The optimization never changes the TLP: callers pass the spare shared
// memory available *at the chosen TLP* and the rewriting only consumes that
// slack.
package spillopt

import (
	"fmt"
	"sort"

	"crat/internal/passes"
	"crat/internal/ptx"
	"crat/internal/regalloc"
)

// Split selects how the spill stack is divided into knapsack items.
type Split uint8

// Splitting strategies. SplitByType is the paper's choice ("we split the
// spill stack according to the data type and the width of the spilled
// variables"); the others are ablation alternatives (paper: "alternative
// split methods may lead to different result, we leave it as future work").
const (
	SplitByType      Split = iota
	SplitWhole             // the entire stack is one all-or-nothing item
	SplitPerVariable       // each spilled variable is its own item
)

// String names the splitting strategy.
func (s Split) String() string {
	switch s {
	case SplitWhole:
		return "whole-stack"
	case SplitPerVariable:
		return "per-variable"
	default:
		return "by-type"
	}
}

// Options configures the optimization.
type Options struct {
	// SpareShmBytes is the spare shared memory available per thread block
	// at the chosen TLP (SpareShmSize in Algorithm 1).
	SpareShmBytes int64
	// BlockSize is the number of threads per block; a sub-stack of s bytes
	// per thread costs s*BlockSize bytes of the block's shared memory.
	BlockSize int
	// Split selects the sub-stack splitting strategy.
	Split Split
	// UnweightedGain counts static access sites without loop-depth
	// weighting (ablation knob; the default weights by 10^depth).
	UnweightedGain bool
	// PreferLowGain inverts the selection: the *least* beneficial
	// sub-stacks are moved first (greedy, within the spare space). It
	// demonstrates that the choice of spilled variable matters (paper
	// Figure 8: spilling var2 beats spilling var1).
	PreferLowGain bool
}

// Group is one sub-stack: a set of spill slots moved (or not) together.
type Group struct {
	Key        string // "u32", "f64", ... (or "all", or a variable name)
	Slots      []regalloc.SpillSlot
	PerThread  int64   // sub-stack bytes per thread (subStackSize[i])
	SharedCost int64   // PerThread * BlockSize: knapsack weight
	Gain       float64 // estimated accesses redirected (gain[i])
	InShared   bool    // knapsack decision
}

// Result describes the rewritten kernel and the decisions taken.
type Result struct {
	// Alloc is the final allocation of the rewritten kernel (the shared
	// sub-stack address registers participate in coloring, so register
	// pressure is re-evaluated after the rewrite).
	Alloc *regalloc.Result
	// Groups lists the sub-stacks with their knapsack outcome.
	Groups []Group
	// SharedSpillBytes is the shared memory consumed per block.
	SharedSpillBytes int64
	// MovedGain and TotalGain summarize the knapsack objective.
	MovedGain, TotalGain float64
	// Overhead summarizes the spill instructions of the final kernel.
	Overhead ptx.SpillOverhead
}

// Optimize applies Algorithm 1 to an allocation result. When the input has
// no spills, or no sub-stack fits in the spare shared memory, it returns
// the input allocation unchanged (with the group analysis attached).
func Optimize(r *regalloc.Result, allocOpts regalloc.Options, opts Options) (*Result, error) {
	return OptimizeWith(nil, r, allocOpts, opts)
}

// OptimizeWith runs the optimization as a "shm-knapsack" pass under pm, so
// callers composing a larger pipeline share one instrumented manager (the
// nested reallocation's passes land under the same manager). A nil pm gets
// a private uninstrumented manager.
func OptimizeWith(pm *passes.Manager, r *regalloc.Result, allocOpts regalloc.Options, opts Options) (*Result, error) {
	out := &Result{Alloc: r}
	if r.Kernel != nil {
		out.Overhead = r.Kernel.SpillOverhead()
	}
	if len(r.Spills) == 0 {
		return out, nil
	}
	if opts.BlockSize <= 0 {
		return nil, fmt.Errorf("spillopt: non-positive block size %d", opts.BlockSize)
	}
	if pm == nil {
		pm = &passes.Manager{}
	}
	p := &knapsackPass{pm: pm, r: r, allocOpts: allocOpts, opts: opts, out: out}
	if err := pm.Run(passes.NewAnalysisManager(r.Virtual), p); err != nil {
		return nil, err
	}
	return out, nil
}

// knapsackPass is the shared-memory spilling optimization as a pipeline
// pass: split the spill stack into sub-stacks, estimate gains from the
// cached loop depths, solve the knapsack, and (when anything moves)
// rewrite the virtual kernel and re-run allocation under the same manager.
type knapsackPass struct {
	pm        *passes.Manager
	r         *regalloc.Result
	allocOpts regalloc.Options
	opts      Options
	out       *Result
}

func (p *knapsackPass) Name() string { return "shm-knapsack" }

func (p *knapsackPass) Requires() []passes.Kind {
	return []passes.Kind{passes.KindCFG, passes.KindLoopDepth}
}

func (p *knapsackPass) Invalidates() []passes.Kind { return nil }

func (p *knapsackPass) Run(k *ptx.Kernel, am *passes.AnalysisManager) error {
	r, opts, out := p.r, p.opts, p.out
	groups := splitGroups(r.Spills, opts.Split)
	depth, err := am.InstLoopDepth()
	if err != nil {
		return err
	}
	gains := estimateGains(r, groups, opts.UnweightedGain, depth)
	sizes := make([]int64, len(groups))
	for i := range groups {
		groups[i].Gain = gains[i]
		// Shared cost uses the element-interleaved (padded) layout size.
		groups[i].SharedCost = groupElem(&groups[i]) * int64(len(groups[i].Slots)) * int64(opts.BlockSize)
		sizes[i] = groups[i].SharedCost
		out.TotalGain += gains[i]
	}

	var mask []bool
	var moved float64
	if opts.PreferLowGain {
		mask, moved = worstFit(sizes, gains, opts.SpareShmBytes)
	} else {
		mask, moved = Knapsack(sizes, gains, opts.SpareShmBytes)
	}
	out.MovedGain = moved
	anyMoved := false
	for i := range groups {
		groups[i].InShared = mask[i]
		if mask[i] {
			anyMoved = true
			out.SharedSpillBytes += groups[i].SharedCost
		}
	}
	out.Groups = groups
	if !anyMoved {
		return nil
	}

	rewritten, err := rewriteToShared(r, groups, opts.BlockSize)
	if err != nil {
		return err
	}
	if err := ptx.Verify(rewritten, "spillopt"); err != nil {
		return err
	}
	final, err := regalloc.AllocateWith(p.pm, passes.NewAnalysisManager(rewritten), p.allocOpts)
	if err != nil {
		return fmt.Errorf("spillopt: reallocation failed: %w", err)
	}
	out.Alloc = final
	out.Overhead = final.Kernel.SpillOverhead()
	am.Replace(final.Kernel)
	return nil
}

// splitGroups partitions the spill slots into sub-stacks.
func splitGroups(spills []regalloc.SpillSlot, split Split) []Group {
	switch split {
	case SplitWhole:
		g := Group{Key: "all"}
		for _, s := range spills {
			g.Slots = append(g.Slots, s)
			g.PerThread += int64(s.Type.Bytes())
		}
		return []Group{g}
	case SplitPerVariable:
		out := make([]Group, 0, len(spills))
		for _, s := range spills {
			out = append(out, Group{
				Key:       fmt.Sprintf("v%d", s.VReg),
				Slots:     []regalloc.SpillSlot{s},
				PerThread: int64(s.Type.Bytes()),
			})
		}
		return out
	default: // SplitByType
		byType := make(map[ptx.Type]*Group)
		var keys []ptx.Type
		for _, s := range spills {
			g, ok := byType[s.Type]
			if !ok {
				g = &Group{Key: s.Type.String()}
				byType[s.Type] = g
				keys = append(keys, s.Type)
			}
			g.Slots = append(g.Slots, s)
			g.PerThread += int64(s.Type.Bytes())
		}
		sort.Slice(keys, func(a, b int) bool { return keys[a] < keys[b] })
		out := make([]Group, 0, len(keys))
		for _, k := range keys {
			out = append(out, *byType[k])
		}
		return out
	}
}

// estimateGains scans the virtual kernel for spill instructions (ld/st.local
// addressed off the spill base register) and accumulates each group's
// access count, weighted by 10^loop-depth unless unweighted (Algorithm 1
// lines 4-12). depth is the per-instruction loop depth of r.Virtual.
func estimateGains(r *regalloc.Result, groups []Group, unweighted bool, depth []int) []float64 {
	k := r.Virtual
	groupOf := make(map[int64]int)
	for gi := range groups {
		for _, s := range groups[gi].Slots {
			groupOf[s.Offset] = gi
		}
	}
	gains := make([]float64, len(groups))
	for i := range k.Insts {
		in := &k.Insts[i]
		off, ok := spillAccess(in, r.BaseReg)
		if !ok {
			continue
		}
		gi, ok := groupOf[off]
		if !ok {
			continue
		}
		w := 1.0
		if !unweighted {
			for d := 0; d < depth[i]; d++ {
				w *= 10
			}
		}
		gains[gi] += w
	}
	return gains
}

// spillAccess reports whether in is a spill access through base, returning
// the spill-stack offset.
func spillAccess(in *ptx.Inst, base ptx.Reg) (int64, bool) {
	if base == ptx.NoReg || !in.Op.IsMemory() || in.Space != ptx.SpaceLocal {
		return 0, false
	}
	var mem ptx.Operand
	if in.Op == ptx.OpLd {
		mem = in.Srcs[0]
	} else {
		mem = in.Dst
	}
	if mem.Kind != ptx.OperandMem || mem.Reg != base {
		return 0, false
	}
	return mem.Off, true
}

// Knapsack solves the 0-1 knapsack by dynamic programming (Algorithm 1
// lines 14-23): items with the given sizes and gains, capacity in bytes.
// It returns the selection mask and the achieved gain.
func Knapsack(sizes []int64, gains []float64, capacity int64) ([]bool, float64) {
	n := len(sizes)
	mask := make([]bool, n)
	if capacity <= 0 || n == 0 {
		return mask, 0
	}
	c := int(capacity)
	// S[i][v]: best gain using items 0..i-1 within capacity v (paper's
	// S[N, SpareShmSize] table, with take[][] playing the role of Mask).
	prev := make([]float64, c+1)
	take := make([][]bool, n)
	for i := 0; i < n; i++ {
		take[i] = make([]bool, c+1)
		cur := make([]float64, c+1)
		sz := int(sizes[i])
		for v := 0; v <= c; v++ {
			cur[v] = prev[v]
			if sz >= 0 && sz <= v {
				if alt := prev[v-sz] + gains[i]; alt > cur[v] {
					cur[v] = alt
					take[i][v] = true
				}
			}
		}
		prev = cur
	}
	// Trace back the selection.
	v := c
	for i := n - 1; i >= 0; i-- {
		if take[i][v] {
			mask[i] = true
			v -= int(sizes[i])
		}
	}
	return mask, prev[c]
}

// worstFit greedily selects the lowest-gain sub-stacks that fit: the
// anti-optimal placement used by the Figure 8 comparison.
func worstFit(sizes []int64, gains []float64, capacity int64) ([]bool, float64) {
	n := len(sizes)
	mask := make([]bool, n)
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool {
		if gains[order[a]] != gains[order[b]] {
			return gains[order[a]] < gains[order[b]]
		}
		return order[a] < order[b]
	})
	total := 0.0
	left := capacity
	for _, i := range order {
		if sizes[i] <= left {
			mask[i] = true
			left -= sizes[i]
			total += gains[i]
		}
	}
	return mask, total
}

// sharedStackName names the shared-memory sub-stack array for a group.
func sharedStackName(key string) string { return "SpillShm_" + key }

// groupElem returns the interleaving element size of a group: the largest
// slot size, so every slot occupies one padded element.
func groupElem(g *Group) int64 {
	elem := int64(4)
	for _, s := range g.Slots {
		if int64(s.Type.Bytes()) > elem {
			elem = int64(s.Type.Bytes())
		}
	}
	return elem
}

// rewriteToShared rewrites the virtual kernel's spill accesses belonging to
// shared groups. Each group's sub-stack uses an element-interleaved layout —
// slot j of thread t lives at j*elem*BlockSize + t*elem — so a warp's
// accesses to one slot are consecutive in shared memory and (for 4-byte
// elements) bank-conflict free, mirroring how hardware lays out local
// memory. The per-thread address (base + tid*elem) is computed once at
// entry; each access then uses a static displacement.
func rewriteToShared(r *regalloc.Result, groups []Group, blockSize int) (*ptx.Kernel, error) {
	k := r.Virtual.Clone()

	// Map: spill-stack offset -> (group index, displacement).
	type target struct {
		group int
		off   int64
	}
	targets := make(map[int64]target)
	for gi := range groups {
		if !groups[gi].InShared {
			continue
		}
		elem := groupElem(&groups[gi])
		for j, s := range groups[gi].Slots {
			targets[s.Offset] = target{gi, int64(j) * elem * int64(blockSize)}
		}
	}

	// Declare shared arrays and compute per-group, per-thread addresses.
	addrRegs := make(map[int]ptx.Reg)
	var setup []ptx.Inst
	tidReg := k.NewReg(ptx.U32)
	setup = append(setup, ptx.Inst{
		Op: ptx.OpMov, Type: ptx.U32,
		Dst: ptx.R(tidReg), Srcs: []ptx.Operand{ptx.Spec(ptx.SpecTidX)},
		Guard: ptx.NoReg, Meta: ptx.MetaSpillAddr,
	})
	for gi := range groups {
		if !groups[gi].InShared {
			continue
		}
		elem := groupElem(&groups[gi])
		name := sharedStackName(groups[gi].Key)
		k.AddArray(ptx.ArrayDecl{
			Name:  name,
			Space: ptx.SpaceShared,
			Align: 8,
			Size:  elem * int64(len(groups[gi].Slots)) * int64(blockSize),
		})
		base := k.NewReg(ptx.U32)
		addr := k.NewReg(ptx.U32)
		addrRegs[gi] = addr
		setup = append(setup,
			ptx.Inst{Op: ptx.OpMov, Type: ptx.U32, Dst: ptx.R(base),
				Srcs: []ptx.Operand{ptx.Sym(name)}, Guard: ptx.NoReg,
				Meta: ptx.MetaSpillAddr},
			ptx.Inst{Op: ptx.OpMad, Type: ptx.U32, Dst: ptx.R(addr),
				Srcs:  []ptx.Operand{ptx.R(tidReg), ptx.Imm(elem), ptx.R(base)},
				Guard: ptx.NoReg, Meta: ptx.MetaSpillAddr},
		)
	}

	// Rewrite spill accesses of moved groups.
	remainingLocal := false
	for i := range k.Insts {
		in := &k.Insts[i]
		off, ok := spillAccess(in, r.BaseReg)
		if !ok {
			continue
		}
		t, move := targets[off]
		if !move {
			remainingLocal = true
			continue
		}
		mem := ptx.MemReg(addrRegs[t.group], t.off)
		in.Space = ptx.SpaceShared
		if in.Op == ptx.OpLd {
			in.Srcs[0] = mem
		} else {
			in.Dst = mem
		}
	}

	// Drop the local SpillStack machinery if nothing local remains.
	if !remainingLocal {
		var insts []ptx.Inst
		var carryLabel string
		for i := range k.Insts {
			in := k.Insts[i]
			if in.Op == ptx.OpMov && in.Dst.Kind == ptx.OperandReg &&
				in.Dst.Reg == r.BaseReg && len(in.Srcs) == 1 &&
				in.Srcs[0].Kind == ptx.OperandSym && in.Srcs[0].Sym == regalloc.SpillStackName {
				if in.Label != "" {
					carryLabel = in.Label
				}
				continue
			}
			if carryLabel != "" && in.Label == "" {
				in.Label = carryLabel
			}
			carryLabel = ""
			insts = append(insts, in)
		}
		k.Insts = insts
		var arrays []ptx.ArrayDecl
		for _, a := range k.Arrays {
			if a.Name == regalloc.SpillStackName {
				continue
			}
			arrays = append(arrays, a)
		}
		k.Arrays = arrays
	}

	k.Insts = append(setup, k.Insts...)
	return k, nil
}
