package regalloc

import (
	"crat/internal/cfg"
	"crat/internal/ptx"
)

// coalesce performs conservative (Briggs-style) copy coalescing as a
// pre-pass: a register-to-register mov whose source and destination do not
// interfere is eliminated by renaming the destination into the source,
// provided the merged node is guaranteed to remain colorable under the K
// budget — the merge must not create a node with too many high-degree
// neighbors. Returns the number of copies eliminated.
//
// Briggs' thesis treats coalescing as an integral phase of the allocator;
// the paper only says "we implement a Chaitin-Briggs' register allocator",
// so this pass is optional (Options.Coalesce) and off by default to keep
// the baseline behaviour minimal. It matters most for externally supplied
// PTX, where nvcc's SSA-style output is mov-heavy.
func coalesce(k *ptx.Kernel, budget int) (int, error) {
	merged := 0
	for {
		g, err := cfg.Build(k)
		if err != nil {
			return merged, err
		}
		lv := cfg.ComputeLiveness(g)
		ig := buildIGraph(k, lv)

		pair, ok := findCoalescable(k, ig, budget)
		if !ok {
			return merged, nil
		}
		renameRegister(k, pair.dst, pair.src)
		removeInst(k, pair.inst)
		merged++
	}
}

type copyPair struct {
	inst     int
	dst, src ptx.Reg
}

// findCoalescable scans for the first register copy that passes the
// conservative merge test.
func findCoalescable(k *ptx.Kernel, ig *igraph, budget int) (copyPair, bool) {
	for i := range k.Insts {
		in := &k.Insts[i]
		if in.Op != ptx.OpMov || in.Guard != ptx.NoReg {
			continue
		}
		if in.Dst.Kind != ptx.OperandReg || len(in.Srcs) != 1 || in.Srcs[0].Kind != ptx.OperandReg {
			continue
		}
		dst, src := in.Dst.Reg, in.Srcs[0].Reg
		if dst == src {
			continue
		}
		td, ts := k.RegType(dst), k.RegType(src)
		if td.Class() != ts.Class() || td.Class() == ptx.ClassPred {
			continue
		}
		// Must not interfere (a copy between interfering names is a real
		// data movement, not an artifact).
		if ig.interferes(dst, src) {
			continue
		}
		if briggsSafe(ig, dst, src, budget) {
			return copyPair{inst: i, dst: dst, src: src}, true
		}
	}
	return copyPair{}, false
}

// briggsSafe applies the conservative merge criterion: the merged node's
// high-degree neighbors must together occupy fewer than the remaining
// slots, so the merged node is still trivially colorable in the worst case.
func briggsSafe(ig *igraph, a, b ptx.Reg, budget int) bool {
	mergedSlots := ig.slots(a)
	significant := 0
	count := func(n ptx.Reg) {
		if n != a && n != b && ig.squeeze(n) >= budget-ig.slots(n) {
			significant += ig.slots(n)
		}
	}
	// The union of both neighbour lists, each node once: walk a's list and
	// the part of b's that a's lacks.
	for _, n := range ig.adj[a] {
		count(n)
	}
	for _, n := range ig.adj[b] {
		if !ig.interferes(a, n) {
			count(n)
		}
	}
	return significant <= budget-mergedSlots
}

// renameRegister rewrites every occurrence of old to new across the kernel.
func renameRegister(k *ptx.Kernel, old, new ptx.Reg) {
	fix := func(o *ptx.Operand) {
		switch o.Kind {
		case ptx.OperandReg:
			if o.Reg == old {
				o.Reg = new
			}
		case ptx.OperandMem:
			if o.Reg == old {
				o.Reg = new
			}
		}
	}
	for i := range k.Insts {
		in := &k.Insts[i]
		if in.Guard == old {
			in.Guard = new
		}
		fix(&in.Dst)
		for j := range in.Srcs {
			fix(&in.Srcs[j])
		}
	}
}

// removeInst deletes instruction i, carrying any label forward to the next
// instruction so branch targets stay valid. If the next instruction already
// carries a label, branches to the removed label are retargeted to it.
func removeInst(k *ptx.Kernel, i int) {
	label := k.Insts[i].Label
	k.Insts = append(k.Insts[:i], k.Insts[i+1:]...)
	if label == "" {
		return
	}
	if i < len(k.Insts) {
		if k.Insts[i].Label == "" {
			k.Insts[i].Label = label
			return
		}
		// Label collision: retarget branches to the surviving label.
		survivor := k.Insts[i].Label
		for j := range k.Insts {
			if k.Insts[j].Op == ptx.OpBra && k.Insts[j].Target == label {
				k.Insts[j].Target = survivor
			}
		}
	}
}
