package regalloc

import (
	"fmt"

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

	var out []ptx.Inst
	if needBaseDef {
		st.res.AddrInsts++
	}
	appendBaseDef := func() {
		out = append(out, ptx.Inst{
			Op: ptx.OpMov, Type: ptx.U64,
			Dst: ptx.R(st.baseReg), Srcs: []ptx.Operand{ptx.Sym(SpillStackName)},
			Guard: ptx.NoReg, Meta: ptx.MetaSpillAddr,
		})
	}
	if needBaseDef {
		appendBaseDef()
	}

	var ubuf, dbuf []ptx.Reg
	for i := range k.Insts {
		in := k.Insts[i].Clone()

		// Reload spilled uses into fresh temporaries.
		ubuf = in.Uses(ubuf[:0])
		reloads := make(map[ptx.Reg]ptx.Reg)
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
				Srcs:  []ptx.Operand{ptx.MemReg(st.baseReg, slot.Offset)},
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
		var stores []ptx.Inst
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
				Srcs:  []ptx.Operand{ptx.R(tmp)},
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
// per used slot pair, and densely renumbered predicates. It returns the new
// kernel, the number of 32-bit slots used, and the number of predicates.
func rewritePhysical(k *ptx.Kernel, assignment map[ptx.Reg]int, predBudget int) (*ptx.Kernel, int, int) {
	out := ptx.NewKernel(k.Name)
	out.Params = append([]ptx.Param(nil), k.Params...)
	out.Arrays = append([]ptx.ArrayDecl(nil), k.Arrays...)
	out.Insts = make([]ptx.Inst, 0, len(k.Insts))

	type physKey struct {
		class ptx.RegClass
		slot  int
	}
	phys := make(map[physKey]ptx.Reg)
	regMap := make(map[ptx.Reg]ptx.Reg)
	usedSlots := 0
	nextPred := 0

	mapReg := func(r ptx.Reg) ptx.Reg {
		if m, ok := regMap[r]; ok {
			return m
		}
		t := k.RegType(r)
		var nr ptx.Reg
		switch t.Class() {
		case ptx.ClassPred:
			nr = out.NewReg(ptx.Pred)
			nextPred++
		case ptx.Class64:
			slot, ok := assignment[r]
			if !ok {
				// Unreferenced register: give it a private slot at 0.
				slot = 0
			}
			key := physKey{ptx.Class64, slot}
			if p, ok := phys[key]; ok {
				nr = p
			} else {
				nr = out.NewReg(ptx.B64)
				phys[key] = nr
			}
			if ok && slot+2 > usedSlots {
				usedSlots = slot + 2
			}
		default:
			slot, ok := assignment[r]
			if !ok {
				slot = 0
			}
			key := physKey{ptx.Class32, slot}
			if p, ok := phys[key]; ok {
				nr = p
			} else {
				nr = out.NewReg(ptx.B32)
				phys[key] = nr
			}
			if ok && slot+1 > usedSlots {
				usedSlots = slot + 1
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

	for i := range k.Insts {
		in := k.Insts[i].Clone()
		if in.Guard != ptx.NoReg {
			in.Guard = mapReg(in.Guard)
		}
		in.Dst = mapOperand(in.Dst)
		for j := range in.Srcs {
			in.Srcs[j] = mapOperand(in.Srcs[j])
		}
		out.Append(in)
	}
	_ = predBudget
	return out, usedSlots, nextPred
}
