// Package regalloc implements register allocation for PTX kernels under a
// per-thread register limit: a Chaitin-Briggs graph-coloring allocator with
// spill-code insertion (paper §5), plus a linear-scan reference allocator
// used to cross-validate spill volume (paper §5.2, Figure 12).
//
// The allocator works in 32-bit register slots: a 64-bit virtual register
// occupies two slots, predicates live in a separate predicate file and are
// not charged against the budget — matching how NVIDIA GPUs account
// "registers per thread".
package regalloc

import (
	"slices"

	"crat/internal/cfg"
	"crat/internal/ptx"
)

// igraph is an interference graph over a kernel's virtual registers.
// Only Class32/Class64 registers participate; predicates are handled by a
// trivial separate pass. All per-register state is dense, indexed by Reg.
type igraph struct {
	adj   [][]ptx.Reg // neighbours of each register, ascending
	nodes []ptx.Reg   // participating registers (accessed at least once), ascending
	width []int       // 32-bit slots each register occupies
}

// buildIGraph constructs the interference graph from liveness: at every
// definition point, the defined register interferes with everything live
// after the instruction. Edges accumulate in a bit matrix (a definition
// ORs its live-out set into its row), which is then made symmetric and
// read out as sorted neighbour lists.
func buildIGraph(k *ptx.Kernel, lv *cfg.Liveness) *igraph {
	n := k.NumRegs()
	g := &igraph{adj: make([][]ptx.Reg, n), width: make([]int, n)}
	values := cfg.NewRegSet(n) // the non-predicate registers
	for r := 0; r < n; r++ {
		if c := k.RegType(ptx.Reg(r)).Class(); c != ptx.ClassPred {
			values.Add(ptx.Reg(r))
			g.width[r] = c.Slots()
		}
	}
	words := len(values)
	matrix := make([]uint64, n*words)
	row := func(r ptx.Reg) cfg.RegSet { return matrix[int(r)*words : (int(r)+1)*words] }
	inUse := cfg.NewRegSet(n)
	var buf []ptx.Reg
	for i := range k.Insts {
		in := &k.Insts[i]
		buf = in.Uses(buf[:0])
		for _, r := range buf {
			inUse.Add(r)
		}
		buf = in.Defs(buf[:0])
		for _, d := range buf {
			inUse.Add(d)
			if !values.Has(d) {
				continue
			}
			rd, out := row(d), lv.InstOut[i]
			for w := range rd {
				rd[w] |= out[w] & values[w]
			}
		}
	}
	for r := 0; r < n; r++ {
		rr := row(ptx.Reg(r))
		rr.Remove(ptx.Reg(r))
		rr.ForEach(func(l ptx.Reg) { row(l).Add(ptx.Reg(r)) })
	}
	flat := make([]ptx.Reg, 0, cfg.RegSet(matrix).Count())
	for r := 0; r < n; r++ {
		start := len(flat)
		row(ptx.Reg(r)).ForEach(func(l ptx.Reg) { flat = append(flat, l) })
		g.adj[r] = flat[start:len(flat):len(flat)]
		if inUse.Has(ptx.Reg(r)) && values.Has(ptx.Reg(r)) {
			g.nodes = append(g.nodes, ptx.Reg(r))
		}
	}
	return g
}

// interferes reports whether a and b are neighbours.
func (g *igraph) interferes(a, b ptx.Reg) bool {
	_, found := slices.BinarySearch(g.adj[a], b)
	return found
}

// slots returns the number of 32-bit slots register r occupies.
func (g *igraph) slots(r ptx.Reg) int { return g.width[r] }

// squeeze returns the worst-case number of slots the neighbours of r can
// block: the Briggs trivial-colourability test is squeeze(r) <= K - slots(r).
func (g *igraph) squeeze(r ptx.Reg) int {
	s := 0
	for _, n := range g.adj[r] {
		s += g.width[n]
	}
	return s
}
