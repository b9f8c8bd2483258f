package cfg

import (
	"math/bits"

	"crat/internal/ptx"
)

// RegSet is a bitset over kernel registers.
type RegSet []uint64

// NewRegSet returns an empty set sized for n registers.
func NewRegSet(n int) RegSet { return make(RegSet, (n+63)/64) }

// Has reports whether r is in the set.
func (s RegSet) Has(r ptx.Reg) bool {
	return s[int(r)/64]&(1<<(uint(r)%64)) != 0
}

// Add inserts r. It reports whether the set changed.
func (s RegSet) Add(r ptx.Reg) bool {
	w, b := int(r)/64, uint(r)%64
	if s[w]&(1<<b) != 0 {
		return false
	}
	s[w] |= 1 << b
	return true
}

// Remove deletes r from the set.
func (s RegSet) Remove(r ptx.Reg) {
	s[int(r)/64] &^= 1 << (uint(r) % 64)
}

// Union adds all elements of o; it reports whether the set changed.
func (s RegSet) Union(o RegSet) bool {
	changed := false
	for i := range s {
		n := s[i] | o[i]
		if n != s[i] {
			s[i] = n
			changed = true
		}
	}
	return changed
}

// Clone returns a copy of the set.
func (s RegSet) Clone() RegSet {
	out := make(RegSet, len(s))
	copy(out, s)
	return out
}

// Count returns the number of registers in the set.
func (s RegSet) Count() int {
	n := 0
	for _, w := range s {
		n += bits.OnesCount64(w)
	}
	return n
}

// ForEach calls f for every register in the set, in increasing order.
func (s RegSet) ForEach(f func(ptx.Reg)) {
	for wi, w := range s {
		for ; w != 0; w &= w - 1 {
			f(ptx.Reg(wi*64 + bits.TrailingZeros64(w)))
		}
	}
}

// Liveness holds the result of live-variable analysis: per-block live-in/out
// and per-instruction live-out sets.
type Liveness struct {
	Graph    *Graph
	BlockIn  []RegSet
	BlockOut []RegSet
	// InstOut[i] is the set of registers live immediately after
	// instruction i.
	InstOut []RegSet
}

// ComputeLiveness runs backward live-variable dataflow analysis over the
// kernel's CFG at instruction granularity. This is the "live range analysis"
// step of the Chaitin-Briggs allocator (paper Figure 9).
func ComputeLiveness(g *Graph) *Liveness {
	k := g.Kernel
	nRegs := k.NumRegs()
	nb := len(g.Blocks)

	// Per-block use/def summary.
	use := make([]RegSet, nb)
	def := make([]RegSet, nb)
	var ubuf, dbuf []ptx.Reg
	for bi := range g.Blocks {
		use[bi] = NewRegSet(nRegs)
		def[bi] = NewRegSet(nRegs)
		b := &g.Blocks[bi]
		for i := b.Start; i < b.End; i++ {
			in := &k.Insts[i]
			ubuf = in.Uses(ubuf[:0])
			for _, r := range ubuf {
				if !def[bi].Has(r) {
					use[bi].Add(r)
				}
			}
			dbuf = in.Defs(dbuf[:0])
			for _, r := range dbuf {
				// A predicated definition is a partial write: the old value
				// survives in threads whose guard is false, so the register
				// is also upward-exposed (treated as used).
				if in.Guard != ptx.NoReg && !def[bi].Has(r) {
					use[bi].Add(r)
				}
				def[bi].Add(r)
			}
		}
	}

	lv := &Liveness{
		Graph:    g,
		BlockIn:  make([]RegSet, nb),
		BlockOut: make([]RegSet, nb),
	}
	for bi := range g.Blocks {
		lv.BlockIn[bi] = NewRegSet(nRegs)
		lv.BlockOut[bi] = NewRegSet(nRegs)
	}

	// Iterate to fixpoint (backward): out[b] = union(in[s]); in[b] =
	// use[b] | (out[b] - def[b]).
	changed := true
	for changed {
		changed = false
		for bi := nb - 1; bi >= 0; bi-- {
			b := &g.Blocks[bi]
			out := lv.BlockOut[bi]
			for _, s := range b.Succs {
				if out.Union(lv.BlockIn[s]) {
					changed = true
				}
			}
			in := out.Clone()
			def[bi].ForEach(func(r ptx.Reg) {
				if !use[bi].Has(r) {
					in.Remove(r)
				}
			})
			in.Union(use[bi])
			if lv.BlockIn[bi].Union(in) {
				changed = true
			}
		}
	}

	// Per-instruction live-out by backward scan within each block.
	lv.InstOut = make([]RegSet, len(k.Insts))
	for bi := range g.Blocks {
		b := &g.Blocks[bi]
		live := lv.BlockOut[bi].Clone()
		for i := b.End - 1; i >= b.Start; i-- {
			lv.InstOut[i] = live.Clone()
			in := &k.Insts[i]
			dbuf = in.Defs(dbuf[:0])
			for _, r := range dbuf {
				if in.Guard == ptx.NoReg {
					live.Remove(r)
				}
			}
			ubuf = in.Uses(ubuf[:0])
			for _, r := range ubuf {
				live.Add(r)
			}
			if in.Guard != ptx.NoReg {
				for _, r := range dbuf {
					live.Add(r)
				}
			}
		}
	}
	return lv
}

// LiveAtEntry returns the registers live at kernel entry. For a well-formed
// kernel this contains no general registers (everything is defined before
// use); the allocator uses it as a sanity check.
func (lv *Liveness) LiveAtEntry() RegSet {
	if len(lv.BlockIn) == 0 {
		return nil
	}
	return lv.BlockIn[0]
}

// MaxLivePressure returns the maximum, over all program points, of the
// number of 32-bit register slots occupied by simultaneously live values
// (64-bit values count twice; predicates are excluded). This is a lower
// bound on the registers any allocation needs and drives the MaxReg
// parameter of paper Table 1.
func (lv *Liveness) MaxLivePressure() int {
	k := lv.Graph.Kernel
	max := 0
	for i := range lv.InstOut {
		p := 0
		lv.InstOut[i].ForEach(func(r ptx.Reg) {
			p += k.RegType(r).Class().Slots()
		})
		// Include the instruction's own defs (live through the def point).
		if p > max {
			max = p
		}
	}
	return max
}

// LiveRange describes the instruction span over which a register is live.
type LiveRange struct {
	Reg        ptx.Reg
	Start, End int     // instruction indices, inclusive of defs/uses
	Uses       int     // number of use sites
	Defs       int     // number of def sites
	Weight     float64 // loop-depth-weighted access count (spill cost basis)
}

// LiveRanges computes a conservative linear live interval per register
// (used by the linear-scan reference allocator): the span from its first
// definition to its last use, extended across loops the register is
// live into.
func (lv *Liveness) LiveRanges() []LiveRange {
	k := lv.Graph.Kernel
	depth := lv.Graph.InstLoopDepth()
	n := k.NumRegs()
	ranges := make([]LiveRange, n)
	for r := 0; r < n; r++ {
		ranges[r] = LiveRange{Reg: ptx.Reg(r), Start: -1, End: -1}
	}
	touch := func(r ptx.Reg, i int) {
		lr := &ranges[r]
		if lr.Start == -1 || i < lr.Start {
			lr.Start = i
		}
		if i > lr.End {
			lr.End = i
		}
	}
	var buf []ptx.Reg
	for i := range k.Insts {
		in := &k.Insts[i]
		w := weightAtDepth(depth[i])
		buf = in.Uses(buf[:0])
		for _, r := range buf {
			touch(r, i)
			ranges[r].Uses++
			ranges[r].Weight += w
		}
		buf = in.Defs(buf[:0])
		for _, r := range buf {
			touch(r, i)
			ranges[r].Defs++
			ranges[r].Weight += w
		}
		// Extend ranges across points where the register is live.
		lv.InstOut[i].ForEach(func(r ptx.Reg) { touch(r, i) })
	}
	return ranges
}

// weightAtDepth is the classic 10^depth spill-cost weight.
func weightAtDepth(d int) float64 {
	w := 1.0
	for i := 0; i < d; i++ {
		w *= 10
	}
	return w
}

// AccessWeights returns, per register, the loop-depth-weighted count of its
// static access sites (uses + defs). The Chaitin spill heuristic divides
// this by interference degree.
func (lv *Liveness) AccessWeights() []float64 {
	k := lv.Graph.Kernel
	depth := lv.Graph.InstLoopDepth()
	out := make([]float64, k.NumRegs())
	var buf []ptx.Reg
	for i := range k.Insts {
		w := weightAtDepth(depth[i])
		buf = k.Insts[i].Uses(buf[:0])
		for _, r := range buf {
			out[r] += w
		}
		buf = k.Insts[i].Defs(buf[:0])
		for _, r := range buf {
			out[r] += w
		}
	}
	return out
}
