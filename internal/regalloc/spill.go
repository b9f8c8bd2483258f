package regalloc

import (
	"fmt"
	"slices"

	"crat/internal/ptx"
)

// insertSpills rewrites the working kernel so every register in spillRegs
// lives in the local-memory SpillStack: each use site reloads into a fresh
// temporary and each definition stores back (paper Listing 4). The inserted
// temporaries and the 64-bit stack base register are marked unspillable.
func (st *allocState) insertSpills(spillRegs []ptx.Reg) error {
	k := st.k
	// A kernel that already carries a SpillStack (e.g. spillopt re-runs
	// allocation on a rewritten kernel whose remaining spill code still
	// references earlier slots) must get fresh, non-overlapping offsets:
	// start the stack past the existing array instead of overlaying it.
	if a, ok := k.Array(SpillStackName); ok && a.Size > st.stack {
		st.stack = a.Size
	}
	spillSet := make(map[ptx.Reg]*SpillSlot)
	for _, r := range spillRegs {
		t := k.RegType(r)
		if t.Class() == ptx.ClassPred {
			return fmt.Errorf("regalloc: cannot spill predicate %d", r)
		}
		sz := int64(t.Bytes())
		st.stack = (st.stack + sz - 1) / sz * sz
		slot := SpillSlot{VReg: r, Type: t, Offset: st.stack}
		st.stack += sz
		st.slots[r] = slot
		s := st.slots[r]
		spillSet[r] = &s
	}

	// Ensure the SpillStack declaration exists and is large enough.
	found := false
	for i := range k.Arrays {
		if k.Arrays[i].Name == SpillStackName {
			k.Arrays[i].Size = st.stack
			found = true
		}
	}
	if !found {
		k.AddArray(ptx.ArrayDecl{Name: SpillStackName, Space: ptx.SpaceLocal, Align: 8, Size: st.stack})
	}

	// Reserve the 64-bit base register once and define it at entry
	// ("mov.u64 %d0, SpillStack", paper Listing 4).
	needBaseDef := false
	if st.baseReg == ptx.NoReg {
		st.baseReg = k.NewReg(ptx.U64)
		st.noSpill[st.baseReg] = true
		needBaseDef = true
	}

	// Size the rewritten body exactly: one reload per distinct spilled
	// register an instruction reads, one store per spilled register it
	// writes, and the base definition. A Result keeps this kernel as
	// Virtual, so append slack would live as long as the Result. Each
	// inserted instruction has one source operand.
	var ubuf, dbuf []ptx.Reg
	n, nSrcs := len(k.Insts), 0
	if needBaseDef {
		n++
	}
	for i := range k.Insts {
		nSrcs += len(k.Insts[i].Srcs)
		ubuf = k.Insts[i].Uses(ubuf[:0])
		for j, r := range ubuf {
			if _, ok := spillSet[r]; ok && !slices.Contains(ubuf[:j], r) {
				n++
			}
		}
		dbuf = k.Insts[i].Defs(dbuf[:0])
		for _, d := range dbuf {
			if _, ok := spillSet[d]; ok {
				n++
			}
		}
	}
	out := make([]ptx.Inst, 0, n)
	// Every instruction's Srcs is copied into, or cut from, one backing
	// array, capacity capped so an append reallocates.
	srcs := make([]ptx.Operand, 0, nSrcs+n-len(k.Insts))
	own := func(ops ...ptx.Operand) []ptx.Operand {
		if len(ops) == 0 {
			return nil
		}
		start := len(srcs)
		srcs = append(srcs, ops...)
		return srcs[start:len(srcs):len(srcs)]
	}
	if needBaseDef {
		st.res.AddrInsts++
		out = append(out, ptx.Inst{
			Op: ptx.OpMov, Type: ptx.U64,
			Dst: ptx.R(st.baseReg), Srcs: own(ptx.Sym(SpillStackName)),
			Guard: ptx.NoReg, Meta: ptx.MetaSpillAddr,
		})
	}

	reloads := make(map[ptx.Reg]ptx.Reg)
	var stores []ptx.Inst
	for i := range k.Insts {
		in := k.Insts[i]
		in.Srcs = own(in.Srcs...)

		// Reload spilled uses into fresh temporaries.
		ubuf = in.Uses(ubuf[:0])
		clear(reloads)
		for _, r := range ubuf {
			slot, ok := spillSet[r]
			if !ok {
				continue
			}
			if _, dup := reloads[r]; dup {
				continue
			}
			tmp := k.NewReg(slot.Type)
			st.noSpill[tmp] = true
			reloads[r] = tmp
			ld := ptx.Inst{
				Op: ptx.OpLd, Space: ptx.SpaceLocal, Type: slot.Type,
				Dst:   ptx.R(tmp),
				Srcs:  own(ptx.MemReg(st.baseReg, slot.Offset)),
				Guard: ptx.NoReg, Meta: ptx.MetaSpillLoad,
			}
			// A label on the original instruction must move to the first
			// inserted reload so branches execute it.
			if in.Label != "" {
				ld.Label = in.Label
				in.Label = ""
			}
			out = append(out, ld)
			s := st.slots[r]
			s.Loads++
			st.slots[r] = s
			st.res.SpillLoads++
		}
		renameUses(&in, reloads)

		// A spilled definition writes a fresh temporary, stored back after.
		stores = stores[:0]
		dbuf = in.Defs(dbuf[:0])
		for _, d := range dbuf {
			slot, ok := spillSet[d]
			if !ok {
				continue
			}
			tmp, dup := reloads[d]
			if !dup {
				tmp = k.NewReg(slot.Type)
				st.noSpill[tmp] = true
			}
			in.Dst = ptx.R(tmp)
			stInst := ptx.Inst{
				Op: ptx.OpSt, Space: ptx.SpaceLocal, Type: slot.Type,
				Dst:   ptx.MemReg(st.baseReg, slot.Offset),
				Srcs:  own(ptx.R(tmp)),
				Guard: in.Guard, GuardNeg: in.GuardNeg, Meta: ptx.MetaSpillStore,
			}
			stores = append(stores, stInst)
			s := st.slots[d]
			s.Stores++
			st.slots[d] = s
			st.res.SpillStores++
		}
		out = append(out, in)
		out = append(out, stores...)
	}
	k.Insts = out
	return nil
}

// renameUses replaces register uses per the mapping (guard, sources, and
// memory bases on both sides).
func renameUses(in *ptx.Inst, m map[ptx.Reg]ptx.Reg) {
	if len(m) == 0 {
		return
	}
	if t, ok := m[in.Guard]; ok && in.Guard != ptx.NoReg {
		in.Guard = t
	}
	for i := range in.Srcs {
		renameOperandUse(&in.Srcs[i], m)
	}
	if in.Dst.Kind == ptx.OperandMem {
		renameOperandUse(&in.Dst, m)
	}
}

func renameOperandUse(o *ptx.Operand, m map[ptx.Reg]ptx.Reg) {
	switch o.Kind {
	case ptx.OperandReg:
		if t, ok := m[o.Reg]; ok {
			o.Reg = t
		}
	case ptx.OperandMem:
		if o.Reg != ptx.NoReg {
			if t, ok := m[o.Reg]; ok {
				o.Reg = t
			}
		}
	}
}

// rewritePhysical maps the colored virtual kernel onto dense physical
// register names: one B32 register per used 32-bit slot, one B64 register
// per used slot pair, and densely renumbered predicates. slot holds each
// register's starting slot (-1 where uncolored). It returns the new
// kernel, the number of 32-bit slots used, and the number of predicates.
func rewritePhysical(k *ptx.Kernel, slot []int) (*ptx.Kernel, int, int) {
	// A copy of k whose register file starts empty: registers are created
	// as the rewrite first meets them.
	out := k.Clone()
	out.RegTypes = nil

	// phys[c][s] is the physical register of class c (0: 32-bit, 1:
	// 64-bit) at slot s, and regMap[r] the physical name of r; NoReg until
	// the rewrite first meets them.
	top := 1
	for _, s := range slot {
		top = max(top, s+1)
	}
	phys := [2][]ptx.Reg{make([]ptx.Reg, top), make([]ptx.Reg, top)}
	regMap := make([]ptx.Reg, k.NumRegs())
	for _, m := range [][]ptx.Reg{phys[0], phys[1], regMap} {
		for i := range m {
			m[i] = ptx.NoReg
		}
	}
	usedSlots := 0
	nextPred := 0

	mapReg := func(r ptx.Reg) ptx.Reg {
		if m := regMap[r]; m != ptx.NoReg {
			return m
		}
		t := k.RegType(r)
		var nr ptx.Reg
		if t.Class() == ptx.ClassPred {
			nr = out.NewReg(ptx.Pred)
			nextPred++
		} else {
			// An uncolored (unreferenced) register gets a private slot at 0.
			s, c, w, pt := max(slot[r], 0), 0, 1, ptx.B32
			if t.Class() == ptx.Class64 {
				c, w, pt = 1, 2, ptx.B64
			}
			if nr = phys[c][s]; nr == ptx.NoReg {
				nr = out.NewReg(pt)
				phys[c][s] = nr
			}
			if slot[r] >= 0 {
				usedSlots = max(usedSlots, s+w)
			}
		}
		regMap[r] = nr
		return nr
	}

	mapOperand := func(o ptx.Operand) ptx.Operand {
		switch o.Kind {
		case ptx.OperandReg:
			o.Reg = mapReg(o.Reg)
		case ptx.OperandMem:
			if o.Reg != ptx.NoReg {
				o.Reg = mapReg(o.Reg)
			}
		}
		return o
	}

	for i := range out.Insts {
		in := &out.Insts[i]
		if in.Guard != ptx.NoReg {
			in.Guard = mapReg(in.Guard)
		}
		in.Dst = mapOperand(in.Dst)
		for j := range in.Srcs {
			in.Srcs[j] = mapOperand(in.Srcs[j])
		}
	}
	return out, usedSlots, nextPred
}
