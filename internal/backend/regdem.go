package backend

// The regdem backend implements RegDem-style aggressive register demotion
// (Sakdhnagool et al., PAPERS.md): instead of allocating first and
// relocating spill sub-stacks afterwards (crat), it rewrites selected
// virtual registers to shared-memory slots *before* allocation, so the
// allocator itself sees lowered live pressure. Victims are chosen at the
// program's pressure maxima, cheapest (loop-depth-weighted access count)
// first — high pressure, low frequency — and the rewrite consumes only
// the spare shared memory available at the design point's TLP, so the
// demotion never lowers occupancy.

import (
	"sort"

	"crat/internal/passes"
	"crat/internal/ptx"
	"crat/internal/regalloc"
)

func init() {
	Register(regdemBackend{})
}

type regdemBackend struct{}

func (regdemBackend) Name() string { return "regdem" }

func (regdemBackend) Description() string {
	return "demote high-pressure, low-frequency registers to shared memory before allocation (RegDem)"
}

func (regdemBackend) Passes() []PassInfo {
	return []PassInfo{
		{"regdem-demote", "pre-allocation demotion of high-pressure, low-frequency registers to shared-memory slots (per candidate)"},
		{"coalesce", "conservative copy coalescing before the first coloring (Options.Coalesce; per candidate)"},
		{"color", "Chaitin-Briggs coloring (or linear scan) over the cached CFG and liveness (per candidate)"},
		{"spill-insert", "rewrites uncolorable registers onto the local-memory SpillStack (per candidate)"},
		{"phys-rewrite", "virtual-to-physical register rewrite; verifies and emits the allocated kernel (per candidate)"},
	}
}

func (b regdemBackend) Candidates(pm *passes.Manager, req Request) ([]Candidate, error) {
	in := req.input()
	var out []Candidate
	for _, pt := range req.Points {
		c, err := b.build(pm, req, in, pt)
		if err != nil {
			if IsPipelineFault(err) {
				return nil, err
			}
			continue
		}
		out = append(out, *c)
	}
	return out, nil
}

// build runs the victim walk on a fork of the input's manager. A point
// where nothing is demoted allocates the unmodified input through the
// shared memo; only a demotion clones and rewrites the kernel.
func (b regdemBackend) build(pm *passes.Manager, req Request, in *Input, pt Point) (*Candidate, error) {
	am := in.Analyses().Fork(req.Kernel)
	dp := &demotePass{
		budget:     pt.Reg,
		spareShm:   SpareShm(req.Arch, req.ShmSize, pt.TLP),
		blockSize:  req.BlockSize,
		unweighted: req.Unweighted,
	}
	if err := pm.Run(am, dp); err != nil {
		return nil, err
	}
	var alloc *regalloc.Result
	var err error
	if dp.demoted == 0 {
		alloc, err = in.Allocate(pm, req.allocOptions(pt))
	} else {
		alloc, err = regalloc.AllocateWith(pm, am, req.allocOptions(pt))
	}
	if err != nil {
		return nil, err
	}
	return &Candidate{
		Backend:  b.Name(),
		Reg:      pt.Reg,
		TLP:      pt.TLP,
		Alloc:    alloc,
		Overhead: alloc.Kernel.SpillOverhead(),
		Demoted:  dp.demoted,
	}, nil
}

// demoteElem is the interleaved-layout element size of one demoted value:
// slots are padded to at least 4 bytes so a warp's accesses stay aligned,
// matching spillopt's groupElem.
func demoteElem(t ptx.Type) int64 {
	elem := int64(4)
	if int64(t.Bytes()) > elem {
		elem = int64(t.Bytes())
	}
	return elem
}

// sharedDemoteName names the shared-memory array holding one type's
// demoted values (distinct from spillopt's SpillShm_* arrays so a kernel
// can carry both).
func sharedDemoteName(t ptx.Type) string { return "RegDemShm_" + t.String() }

// demotePass selects and rewrites demotion victims. Selection walks the
// per-instruction live pressure: while the maximum exceeds the register
// budget (less one slot per shared-address register the rewrite will
// add), it demotes the cheapest live register at the hottest point —
// lowest loop-depth-weighted access count, ties toward the lower register
// id — provided its shared slot still fits in the spare shared memory.
// The rewrite then mirrors the allocator's spill insertion, but against
// per-type shared arrays in the element-interleaved layout (slot j of
// thread t at j*elem*BlockSize + t*elem). It rewrites a clone and rebinds
// the manager to it with Replace, so the input kernel, and the analyses a
// Fork shares with the compile's manager, stay valid; the pass declares
// no invalidations.
type demotePass struct {
	budget     int   // register budget in 32-bit slots (design-point Reg)
	spareShm   int64 // spare shared memory per block at the point's TLP
	blockSize  int
	unweighted bool

	// Outputs.
	demoted int
}

func (p *demotePass) Name() string { return "regdem-demote" }

func (p *demotePass) Requires() []passes.Kind {
	return []passes.Kind{passes.KindCFG, passes.KindLiveness, passes.KindLoopDepth}
}

func (p *demotePass) Invalidates() []passes.Kind { return nil }

func (p *demotePass) Run(k *ptx.Kernel, am *passes.AnalysisManager) error {
	if p.blockSize <= 0 || p.spareShm <= 0 {
		return nil
	}
	lv, err := am.Liveness()
	if err != nil {
		return err
	}
	depth, err := am.InstLoopDepth()
	if err != nil {
		return err
	}

	// Per-instruction live pressure in 32-bit slots (as MaxLivePressure).
	pres := make([]int, len(lv.InstOut))
	for i := range lv.InstOut {
		s := 0
		lv.InstOut[i].ForEach(func(r ptx.Reg) {
			s += k.RegType(r).Class().Slots()
		})
		pres[i] = s
	}

	// Loop-depth-weighted access counts: the demotion cost of a register
	// (every access becomes a shared-memory reload or store-back).
	weights := make([]float64, k.NumRegs())
	var buf []ptx.Reg
	for i := range k.Insts {
		w := 1.0
		if !p.unweighted {
			for d := 0; d < depth[i]; d++ {
				w *= 10
			}
		}
		buf = k.Insts[i].Uses(buf[:0])
		for _, r := range buf {
			weights[r] += w
		}
		buf = k.Insts[i].Defs(buf[:0])
		for _, r := range buf {
			weights[r] += w
		}
	}

	demote := make(map[ptx.Reg]bool)
	groupTypes := make(map[ptx.Type]bool)
	shmLeft := p.spareShm
	for {
		// One whole-kernel shared-address register per demoted type stays
		// live everywhere, so the effective budget shrinks with each group.
		target := p.budget - len(groupTypes)
		maxP, at := 0, -1
		for i, v := range pres {
			if v > maxP {
				maxP, at = v, i
			}
		}
		if at < 0 || maxP <= target {
			break
		}
		best, bestW := ptx.NoReg, 0.0
		lv.InstOut[at].ForEach(func(r ptx.Reg) {
			if demote[r] {
				return
			}
			t := k.RegType(r)
			if t.Class() == ptx.ClassPred {
				return
			}
			if demoteElem(t)*int64(p.blockSize) > shmLeft {
				return
			}
			if best == ptx.NoReg || weights[r] < bestW {
				best, bestW = r, weights[r]
			}
		})
		if best == ptx.NoReg {
			break // hottest point has no demotable register left
		}
		t := k.RegType(best)
		demote[best] = true
		groupTypes[t] = true
		shmLeft -= demoteElem(t) * int64(p.blockSize)
		slots := t.Class().Slots()
		for i := range pres {
			if lv.InstOut[i].Has(best) {
				pres[i] -= slots
			}
		}
	}
	if len(demote) == 0 {
		return nil
	}
	c := k.Clone()
	p.rewrite(c, demote)
	am.Replace(c)
	return nil
}

// demoteSlot is one demoted register's shared-memory home.
type demoteSlot struct {
	addr ptx.Reg // per-thread group address register
	off  int64   // static displacement within the group
	typ  ptx.Type
}

// rewrite moves every register in demote to a shared-memory slot:
// per-type interleaved arrays, per-thread addresses computed once at
// entry, each use reloaded into a fresh temporary and each definition
// stored back under the instruction's guard (mirroring the allocator's
// spill insertion, paper Listing 4).
func (p *demotePass) rewrite(k *ptx.Kernel, demote map[ptx.Reg]bool) {
	// Group the victims by type, registers sorted for determinism.
	byType := make(map[ptx.Type][]ptx.Reg)
	var types []ptx.Type
	for r := range demote {
		t := k.RegType(r)
		if _, ok := byType[t]; !ok {
			types = append(types, t)
		}
		byType[t] = append(byType[t], r)
	}
	sort.Slice(types, func(a, b int) bool { return types[a] < types[b] })
	for _, t := range types {
		regs := byType[t]
		sort.Slice(regs, func(a, b int) bool { return regs[a] < regs[b] })
	}

	// Declare the arrays and compute per-group, per-thread addresses.
	var setup []ptx.Inst
	tid := k.NewReg(ptx.U32)
	setup = append(setup, ptx.Inst{
		Op: ptx.OpMov, Type: ptx.U32,
		Dst: ptx.R(tid), Srcs: []ptx.Operand{ptx.Spec(ptx.SpecTidX)},
		Guard: ptx.NoReg, Meta: ptx.MetaSpillAddr,
	})
	slots := make(map[ptx.Reg]demoteSlot)
	for _, t := range types {
		regs := byType[t]
		elem := demoteElem(t)
		name := sharedDemoteName(t)
		size := elem * int64(len(regs)) * int64(p.blockSize)
		k.AddArray(ptx.ArrayDecl{Name: name, Space: ptx.SpaceShared, Align: 8, Size: size})
		base := k.NewReg(ptx.U32)
		addr := k.NewReg(ptx.U32)
		setup = append(setup,
			ptx.Inst{Op: ptx.OpMov, Type: ptx.U32, Dst: ptx.R(base),
				Srcs: []ptx.Operand{ptx.Sym(name)}, Guard: ptx.NoReg,
				Meta: ptx.MetaSpillAddr},
			ptx.Inst{Op: ptx.OpMad, Type: ptx.U32, Dst: ptx.R(addr),
				Srcs:  []ptx.Operand{ptx.R(tid), ptx.Imm(elem), ptx.R(base)},
				Guard: ptx.NoReg, Meta: ptx.MetaSpillAddr},
		)
		for j, r := range regs {
			slots[r] = demoteSlot{addr: addr, off: int64(j) * elem * int64(p.blockSize), typ: t}
		}
	}
	p.demoted = len(slots)

	var out []ptx.Inst
	var ubuf, dbuf []ptx.Reg
	for i := range k.Insts {
		in := k.Insts[i].Clone()

		// Reload demoted uses into fresh temporaries.
		ubuf = in.Uses(ubuf[:0])
		reloads := make(map[ptx.Reg]ptx.Reg)
		for _, r := range ubuf {
			slot, ok := slots[r]
			if !ok {
				continue
			}
			if _, dup := reloads[r]; dup {
				continue
			}
			tmp := k.NewReg(slot.typ)
			reloads[r] = tmp
			ld := ptx.Inst{
				Op: ptx.OpLd, Space: ptx.SpaceShared, Type: slot.typ,
				Dst:   ptx.R(tmp),
				Srcs:  []ptx.Operand{ptx.MemReg(slot.addr, slot.off)},
				Guard: ptx.NoReg, Meta: ptx.MetaSpillLoad,
			}
			// A label on the original instruction must move to the first
			// inserted reload so branches execute it.
			if in.Label != "" {
				ld.Label = in.Label
				in.Label = ""
			}
			out = append(out, ld)
		}
		renameDemotedUses(&in, reloads)

		// A demoted definition writes a fresh temporary, stored back after
		// (under the instruction's guard: a predicated write must not
		// clobber the slot in threads whose guard is false).
		var stores []ptx.Inst
		dbuf = in.Defs(dbuf[:0])
		for _, d := range dbuf {
			slot, ok := slots[d]
			if !ok {
				continue
			}
			tmp, dup := reloads[d]
			if !dup {
				tmp = k.NewReg(slot.typ)
			}
			in.Dst = ptx.R(tmp)
			stores = append(stores, ptx.Inst{
				Op: ptx.OpSt, Space: ptx.SpaceShared, Type: slot.typ,
				Dst:   ptx.MemReg(slot.addr, slot.off),
				Srcs:  []ptx.Operand{ptx.R(tmp)},
				Guard: in.Guard, GuardNeg: in.GuardNeg, Meta: ptx.MetaSpillStore,
			})
		}
		out = append(out, in)
		out = append(out, stores...)
	}
	k.Insts = append(setup, out...)
}

// renameDemotedUses replaces register uses per the mapping (guard,
// sources, and memory bases on both sides), as regalloc's spill insertion
// does.
func renameDemotedUses(in *ptx.Inst, m map[ptx.Reg]ptx.Reg) {
	if len(m) == 0 {
		return
	}
	if t, ok := m[in.Guard]; ok && in.Guard != ptx.NoReg {
		in.Guard = t
	}
	rename := func(o *ptx.Operand) {
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
	for i := range in.Srcs {
		rename(&in.Srcs[i])
	}
	if in.Dst.Kind == ptx.OperandMem {
		rename(&in.Dst)
	}
}
