package regalloc

import (
	"errors"
	"testing"

	"crat/internal/emu/ptxgen"
	"crat/internal/ptx"
)

// paperKernel builds the thread-identifier kernel of paper Listing 2:
// five virtual registers, colorable into three (paper Listing 3).
func paperKernel() *ptx.Kernel {
	b := ptx.NewBuilder("kernel")
	b.Param("output", ptx.U64)
	r0, r1, r2, r3, r4 := b.Reg(ptx.U32), b.Reg(ptx.U32), b.Reg(ptx.U32), b.Reg(ptx.U32), b.Reg(ptx.U32)
	b.MovSpec(r0, ptx.SpecTidX)
	b.MovSpec(r1, ptx.SpecCtaIdX)
	b.MovSpec(r2, ptx.SpecNTidX)
	b.Mul(ptx.U32, r3, ptx.R(r2), ptx.R(r1))
	b.Add(ptx.U32, r4, ptx.R(r0), ptx.R(r3))
	// Store the result so r4 is not dead.
	out := b.Reg(ptx.U64)
	b.LdParam(ptx.U64, out, "output")
	b.St(ptx.SpaceGlobal, ptx.U32, ptx.MemReg(out, 0), ptx.R(r4))
	b.Exit()
	return b.Kernel()
}

// pressureKernel builds a kernel with `live` simultaneously live
// accumulators, so MaxReg is roughly live+overhead.
func pressureKernel(live int) *ptx.Kernel {
	b := ptx.NewBuilder("pressure")
	b.Param("out", ptx.U64)
	out := b.Reg(ptx.U64)
	b.LdParam(ptx.U64, out, "out")
	regs := b.Regs(ptx.U32, live)
	for i, r := range regs {
		b.Mov(ptx.U32, r, ptx.Imm(int64(i+1)))
	}
	sum := b.Reg(ptx.U32)
	b.Mov(ptx.U32, sum, ptx.Imm(0))
	for _, r := range regs {
		b.Add(ptx.U32, sum, ptx.R(sum), ptx.R(r))
	}
	b.St(ptx.SpaceGlobal, ptx.U32, ptx.MemReg(out, 0), ptx.R(sum))
	b.Exit()
	return b.Kernel()
}

func TestPaperExampleNeedsThreeRegisters(t *testing.T) {
	k := paperKernel()
	max, err := MaxReg(k)
	if err != nil {
		t.Fatalf("MaxReg: %v", err)
	}
	// Exactly 3 slots, matching paper Listing 3: the three scalars peak at
	// 3 simultaneous live values, and the 64-bit output pointer's live
	// range does not overlap them, so it reuses two of those slots.
	if max != 3 {
		t.Errorf("MaxReg = %d, want 3 (paper Listing 3)", max)
	}
	res, err := Allocate(k, Options{Regs: 3})
	if err != nil {
		t.Fatalf("Allocate: %v", err)
	}
	if len(res.Spills) != 0 {
		t.Errorf("spills = %v, want none at MaxReg", res.Spills)
	}
	if res.UsedRegs != 3 {
		t.Errorf("UsedRegs = %d, want 3", res.UsedRegs)
	}
	if err := res.Kernel.Validate(); err != nil {
		t.Errorf("allocated kernel invalid: %v", err)
	}
}

func TestAllocationReducesRegisters(t *testing.T) {
	k := paperKernel()
	n32, _, _ := k.RegCounts()
	if n32 != 5 {
		t.Fatalf("test premise: kernel has %d 32-bit vregs, want 5", n32)
	}
	res, err := Allocate(k, Options{Regs: 16})
	if err != nil {
		t.Fatal(err)
	}
	got32, _, _ := res.Kernel.RegCounts()
	if got32 >= n32 {
		t.Errorf("allocation did not reduce 32-bit registers: %d -> %d", n32, got32)
	}
}

func TestSpillingUnderPressure(t *testing.T) {
	k := pressureKernel(12)
	max, err := MaxReg(k)
	if err != nil {
		t.Fatal(err)
	}
	budget := max - 4
	res, err := Allocate(k, Options{Regs: budget})
	if err != nil {
		t.Fatalf("Allocate(%d): %v", budget, err)
	}
	if len(res.Spills) == 0 {
		t.Fatal("expected spills under reduced budget")
	}
	if res.UsedRegs > budget {
		t.Errorf("UsedRegs = %d exceeds budget %d", res.UsedRegs, budget)
	}
	if res.SpillLoads == 0 || res.SpillStores == 0 {
		t.Errorf("spill loads/stores = %d/%d, want both > 0", res.SpillLoads, res.SpillStores)
	}
	if res.SpillStackBytes <= 0 {
		t.Errorf("SpillStackBytes = %d, want > 0", res.SpillStackBytes)
	}
	if _, ok := res.Kernel.Array(SpillStackName); !ok {
		t.Error("spilled kernel has no SpillStack declaration")
	}
	if err := res.Kernel.Validate(); err != nil {
		t.Errorf("spilled kernel invalid: %v", err)
	}
	// The virtual form must also be valid and parse/print round-trippable.
	if err := res.Virtual.Validate(); err != nil {
		t.Errorf("virtual kernel invalid: %v", err)
	}
	if _, err := ptx.Parse(ptx.Print(res.Kernel)); err != nil {
		t.Errorf("spilled kernel does not reparse: %v", err)
	}
}

func TestSpillCodeStructure(t *testing.T) {
	k := pressureKernel(12)
	max, _ := MaxReg(k)
	res, err := Allocate(k, Options{Regs: max - 3})
	if err != nil {
		t.Fatal(err)
	}
	// Every ld.local must read [base+off] with off matching a spill slot;
	// every st.local likewise.
	offsets := map[int64]bool{}
	for _, s := range res.Spills {
		offsets[s.Offset] = true
	}
	stats := res.Kernel.StaticStats()
	if stats.LocalOps != res.SpillLoads+res.SpillStores {
		t.Errorf("local ops = %d, want %d", stats.LocalOps, res.SpillLoads+res.SpillStores)
	}
	for i := range res.Kernel.Insts {
		in := &res.Kernel.Insts[i]
		if !in.Op.IsMemory() || in.Space != ptx.SpaceLocal {
			continue
		}
		var mem ptx.Operand
		if in.Op == ptx.OpLd {
			mem = in.Srcs[0]
		} else {
			mem = in.Dst
		}
		if !offsets[mem.Off] {
			t.Errorf("inst %d: spill access at unknown offset %d", i, mem.Off)
		}
	}
}

// TestSpilledVirtualIsTight: spill insertion sizes the rewritten body
// exactly, so a Result's Virtual kernel keeps no append slack for as long
// as the Result is kept.
func TestSpilledVirtualIsTight(t *testing.T) {
	spilled := 0
	for seed := int64(1); seed <= 16; seed++ {
		k := ptxgen.Generate(ptxgen.Config{Seed: seed, Block: 128})
		max, err := MaxReg(k)
		if err != nil {
			t.Fatal(err)
		}
		for _, regs := range []int{max / 2, max - 2} {
			res, err := Allocate(k, Options{Regs: regs})
			if errors.Is(err, ErrInfeasible) {
				continue
			}
			if err != nil {
				t.Fatalf("seed %d reg %d: %v", seed, regs, err)
			}
			if len(res.Spills) == 0 {
				continue
			}
			spilled++
			if n, c := len(res.Virtual.Insts), cap(res.Virtual.Insts); c != n {
				t.Errorf("seed %d reg %d: Virtual.Insts len %d cap %d", seed, regs, n, c)
			}
		}
	}
	if spilled == 0 {
		t.Fatal("no allocation spilled")
	}
}

func TestInfeasibleBudget(t *testing.T) {
	k := pressureKernel(8)
	if _, err := Allocate(k, Options{Regs: 2}); err == nil {
		t.Error("Allocate accepted a budget too small for spill machinery")
	}
}

func TestLinearScanAllocates(t *testing.T) {
	k := pressureKernel(12)
	max, _ := MaxReg(k)
	res, err := Allocate(k, Options{Regs: max + 4, Algorithm: AlgoLinearScan})
	if err != nil {
		t.Fatalf("linear scan: %v", err)
	}
	if len(res.Spills) != 0 {
		t.Errorf("linear scan spilled %d regs with generous budget", len(res.Spills))
	}
	if err := res.Kernel.Validate(); err != nil {
		t.Errorf("linear scan kernel invalid: %v", err)
	}

	tight, err := Allocate(k, Options{Regs: max - 4, Algorithm: AlgoLinearScan})
	if err != nil {
		t.Fatalf("linear scan tight: %v", err)
	}
	if len(tight.Spills) == 0 {
		t.Error("linear scan did not spill under pressure")
	}
	if tight.UsedRegs > max-4 {
		t.Errorf("linear scan UsedRegs = %d exceeds budget", tight.UsedRegs)
	}
}

func TestAllocatorsComparableSpillVolume(t *testing.T) {
	// The two allocators should produce similar-but-not-identical spill
	// volume (paper Figure 12's validation premise).
	k := pressureKernel(16)
	max, _ := MaxReg(k)
	budget := max - 6
	cb, err := Allocate(k, Options{Regs: budget})
	if err != nil {
		t.Fatal(err)
	}
	ls, err := Allocate(k, Options{Regs: budget, Algorithm: AlgoLinearScan})
	if err != nil {
		t.Fatal(err)
	}
	cbOps := cb.SpillLoads + cb.SpillStores
	lsOps := ls.SpillLoads + ls.SpillStores
	if cbOps == 0 || lsOps == 0 {
		t.Fatalf("expected both to spill: chaitin=%d linear=%d", cbOps, lsOps)
	}
	if lsOps > cbOps*4 || cbOps > lsOps*4 {
		t.Errorf("spill volumes diverge too much: chaitin=%d linear=%d", cbOps, lsOps)
	}
}

func TestDeterminism(t *testing.T) {
	k := pressureKernel(12)
	max, _ := MaxReg(k)
	a, err := Allocate(k, Options{Regs: max - 3})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Allocate(k, Options{Regs: max - 3})
	if err != nil {
		t.Fatal(err)
	}
	if ptx.Print(a.Kernel) != ptx.Print(b.Kernel) {
		t.Error("allocation is not deterministic")
	}
}

func TestGuardedDefSpill(t *testing.T) {
	// Spilling a register defined under a predicate keeps the store
	// predicated, preserving the partial-write semantics.
	b := ptx.NewBuilder("guarded")
	b.Param("out", ptx.U64)
	out := b.Reg(ptx.U64)
	b.LdParam(ptx.U64, out, "out")
	p := b.Reg(ptx.Pred)
	x := b.Reg(ptx.U32)
	tid := b.Reg(ptx.U32)
	b.MovSpec(tid, ptx.SpecTidX)
	b.Setp(ptx.CmpLt, ptx.U32, p, ptx.R(tid), ptx.Imm(16))
	b.Mov(ptx.U32, x, ptx.Imm(1))
	b.If(p, false).Mov(ptx.U32, x, ptx.Imm(2))
	// Lots of pressure between def and use to force x to spill.
	regs := b.Regs(ptx.U32, 10)
	for i, r := range regs {
		b.Mov(ptx.U32, r, ptx.Imm(int64(i)))
	}
	sum := b.Reg(ptx.U32)
	b.Mov(ptx.U32, sum, ptx.Imm(0))
	for _, r := range regs {
		b.Add(ptx.U32, sum, ptx.R(sum), ptx.R(r))
	}
	b.Add(ptx.U32, sum, ptx.R(sum), ptx.R(x))
	b.St(ptx.SpaceGlobal, ptx.U32, ptx.MemReg(out, 0), ptx.R(sum))
	b.Exit()
	k := b.Kernel()
	max, _ := MaxReg(k)
	res, err := Allocate(k, Options{Regs: max - 2})
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Kernel.Validate(); err != nil {
		t.Fatalf("invalid: %v", err)
	}
	// Any predicated st.local must exist only if x spilled; check that all
	// guarded spill stores kept their guard.
	for i := range res.Virtual.Insts {
		in := &res.Virtual.Insts[i]
		if in.Op == ptx.OpSt && in.Space == ptx.SpaceLocal && in.Guard != ptx.NoReg {
			return // found a guarded spill store: behaviour preserved
		}
	}
	// It is legal for x not to be the spill victim; only fail if x spilled
	// without a guarded store.
	for _, s := range res.Spills {
		if s.VReg == x {
			t.Error("x spilled but no guarded spill store found")
		}
	}
}

func TestLabelMovesToReload(t *testing.T) {
	// If a branch target instruction uses a spilled register, the reload
	// must execute on the branch path: the label must move onto the reload.
	b := ptx.NewBuilder("lbl")
	b.Param("out", ptx.U64)
	out := b.Reg(ptx.U64)
	b.LdParam(ptx.U64, out, "out")
	x := b.Reg(ptx.U32)
	b.Mov(ptx.U32, x, ptx.Imm(42))
	regs := b.Regs(ptx.U32, 12)
	for i, r := range regs {
		b.Mov(ptx.U32, r, ptx.Imm(int64(i)))
	}
	sum := b.Reg(ptx.U32)
	b.Mov(ptx.U32, sum, ptx.Imm(0))
	for _, r := range regs {
		b.Add(ptx.U32, sum, ptx.R(sum), ptx.R(r))
	}
	b.Bra("USE")
	b.Label("USE").Add(ptx.U32, sum, ptx.R(sum), ptx.R(x))
	b.St(ptx.SpaceGlobal, ptx.U32, ptx.MemReg(out, 0), ptx.R(sum))
	b.Exit()
	k := b.Kernel()
	max, _ := MaxReg(k)
	res, err := Allocate(k, Options{Regs: max - 2})
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Kernel.Validate(); err != nil {
		t.Fatalf("invalid (label handling broken?): %v", err)
	}
	idx, ok := res.Kernel.LabelIndex("USE")
	if !ok {
		t.Fatal("label USE lost")
	}
	// If x was spilled, the labeled instruction must be its reload.
	spilledX := false
	for _, s := range res.Spills {
		if s.VReg == x {
			spilledX = true
		}
	}
	if spilledX {
		in := &res.Kernel.Insts[idx]
		if in.Op != ptx.OpLd || in.Space != ptx.SpaceLocal {
			t.Errorf("labeled inst is %v.%v, want the spill reload", in.Op, in.Space)
		}
	}
}

func TestMaxRegMonotonicity(t *testing.T) {
	// More live values can never need fewer registers.
	prev := 0
	for _, live := range []int{2, 4, 8, 16} {
		max, err := MaxReg(pressureKernel(live))
		if err != nil {
			t.Fatal(err)
		}
		if max < prev {
			t.Errorf("MaxReg(%d live) = %d < previous %d", live, max, prev)
		}
		prev = max
	}
}

func TestUsedRegsNeverExceedsBudget(t *testing.T) {
	k := pressureKernel(14)
	max, _ := MaxReg(k)
	for budget := max + 2; budget >= 6; budget-- {
		res, err := Allocate(k, Options{Regs: budget})
		if err != nil {
			// Small budgets may be infeasible; that's the expected floor.
			return
		}
		if res.UsedRegs > budget {
			t.Fatalf("budget %d: UsedRegs = %d", budget, res.UsedRegs)
		}
		if err := res.Kernel.Validate(); err != nil {
			t.Fatalf("budget %d: invalid kernel: %v", budget, err)
		}
	}
}
