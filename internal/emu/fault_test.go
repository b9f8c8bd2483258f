package emu

import (
	"errors"
	"testing"

	"crat/internal/ptx"
	"crat/internal/sem"
)

// laneFaultKernel builds a one-warp kernel whose middle instruction faults
// on lane k only. Every lane then stores to after[tid]; no lane may get
// there. The null-global row's faulting instruction is itself a global
// store of tid+1 to out[tid], so its effects show which lanes ran before
// the fault.
func laneFaultKernel(kind FaultKind, k int) *ptx.Kernel {
	b := ptx.NewBuilder("lanefault")
	b.Param("out", ptx.U64).Param("after", ptx.U64)
	b.LocalArray("frame", 16)
	b.SharedArray("tile", 16)
	tid := b.Reg(ptx.U32)
	b.MovSpec(tid, ptx.SpecTidX)
	pout := b.Reg(ptx.U64)
	pafter := b.Reg(ptx.U64)
	b.LdParam(ptx.U64, pout, "out")
	b.LdParam(ptx.U64, pafter, "after")
	v := b.Reg(ptx.U32)
	b.Add(ptx.U32, v, ptx.R(tid), ptx.Imm(1))
	isK := b.Reg(ptx.Pred)
	b.Setp(ptx.CmpEq, ptx.U32, isK, ptx.R(tid), ptx.Imm(int64(k)))
	addr := b.Reg(ptx.U64)
	switch kind {
	case FaultExec:
		// Lanes k and up execute an integer SFU op; the lowest of them
		// faults.
		fromK := b.Reg(ptx.Pred)
		b.Setp(ptx.CmpGe, ptx.U32, fromK, ptx.R(tid), ptx.Imm(int64(k)))
		r := b.Reg(ptx.U32)
		b.If(fromK, false).Sfu(ptx.OpSin, ptx.U32, r, ptx.Imm(1))
	case FaultNullGlobal:
		b.Selp(ptx.U64, addr, ptx.Imm(8), ptx.R(b.AddrOf(pout, tid, 4)), isK)
		b.St(ptx.SpaceGlobal, ptx.U32, ptx.MemReg(addr, 0), ptx.R(v))
	case FaultMemOOB:
		b.Selp(ptx.U64, addr, ptx.Imm(64), ptx.Imm(0), isK)
		b.St(ptx.SpaceLocal, ptx.U32, ptx.MemReg(addr, 0), ptx.R(v))
	}
	b.St(ptx.SpaceGlobal, ptx.U32, ptx.MemReg(b.AddrOf(pafter, tid, 4), 0), ptx.R(v))
	b.Exit()
	return b.Kernel()
}

// sharedFaultKernel is laneFaultKernel's mem-oob row in the shared space.
func sharedFaultKernel(k int) *ptx.Kernel {
	kern := laneFaultKernel(FaultMemOOB, k)
	for i := range kern.Insts {
		if kern.Insts[i].Op == ptx.OpSt && kern.Insts[i].Space == ptx.SpaceLocal {
			kern.Insts[i].Space = ptx.SpaceShared
		}
	}
	return kern
}

// TestLaneFaultOrdering: whichever lane faults, the fault names it and
// nothing after the faulting instruction ran. Where the instruction's
// effects are visible in global memory (the null-global row), those from
// lower lanes have landed and those from higher lanes have not.
func TestLaneFaultOrdering(t *testing.T) {
	const block = 32
	rows := []struct {
		name  string
		kind  FaultKind
		space ptx.Space
		build func(k int) *ptx.Kernel
	}{
		{"micro-bad", FaultExec, ptx.SpaceNone, func(k int) *ptx.Kernel { return laneFaultKernel(FaultExec, k) }},
		{"null-global", FaultNullGlobal, ptx.SpaceGlobal, func(k int) *ptx.Kernel { return laneFaultKernel(FaultNullGlobal, k) }},
		{"local-oob", FaultMemOOB, ptx.SpaceLocal, func(k int) *ptx.Kernel { return laneFaultKernel(FaultMemOOB, k) }},
		{"shared-oob", FaultMemOOB, ptx.SpaceShared, sharedFaultKernel},
	}
	for _, row := range rows {
		for _, k := range []int{0, 7, 31} {
			mem := sem.NewMemory()
			out := mem.Alloc(4 * block)
			after := mem.Alloc(4 * block)
			_, err := Run(Launch{Kernel: row.build(k), Grid: 1, Block: block, Params: []uint64{out, after}}, mem)
			var f *Fault
			if !errors.As(err, &f) {
				t.Fatalf("%s lane %d: want a fault, got %v", row.name, k, err)
			}
			if f.Kind != row.kind || f.Lane != k || f.Warp != 0 || f.Block != 0 {
				t.Errorf("%s lane %d: got %v", row.name, k, f)
			}
			if row.kind != FaultExec && f.Space != row.space {
				t.Errorf("%s lane %d: fault space %v, want %v", row.name, k, f.Space, row.space)
			}
			for i := 0; i < block; i++ {
				want := uint32(0)
				if row.kind == FaultNullGlobal && i < k {
					want = uint32(i + 1)
				}
				if got := mem.ReadUint32(out + uint64(4*i)); got != want {
					t.Errorf("%s lane %d: out[%d] = %d, want %d", row.name, k, i, got, want)
				}
				if got := mem.ReadUint32(after + uint64(4*i)); got != 0 {
					t.Errorf("%s lane %d: after[%d] = %d: a store past the fault landed", row.name, k, i, got)
				}
			}
		}
	}
}

// TestSameAddressStoreOrder: when lanes of one store hit one global
// address, lanes land in ascending order, so the highest lane's value wins.
func TestSameAddressStoreOrder(t *testing.T) {
	b := ptx.NewBuilder("samestore")
	b.Param("out", ptx.U64)
	tid := b.Reg(ptx.U32)
	b.MovSpec(tid, ptx.SpecTidX)
	pout := b.Reg(ptx.U64)
	b.LdParam(ptx.U64, pout, "out")
	v := b.Reg(ptx.U32)
	b.Add(ptx.U32, v, ptx.R(tid), ptx.Imm(100))
	// Lanes 3 and 9 store to out[0], every other lane to out[1].
	p3 := b.Reg(ptx.Pred)
	p9 := b.Reg(ptx.Pred)
	b.Setp(ptx.CmpEq, ptx.U32, p3, ptx.R(tid), ptx.Imm(3))
	b.Setp(ptx.CmpEq, ptx.U32, p9, ptx.R(tid), ptx.Imm(9))
	off := b.Reg(ptx.U64)
	b.Selp(ptx.U64, off, ptx.Imm(0), ptx.Imm(4), p3)
	b.Selp(ptx.U64, off, ptx.Imm(0), ptx.R(off), p9)
	addr := b.Reg(ptx.U64)
	b.Add(ptx.U64, addr, ptx.R(pout), ptx.R(off))
	b.St(ptx.SpaceGlobal, ptx.U32, ptx.MemReg(addr, 0), ptx.R(v))
	b.Exit()

	mem := sem.NewMemory()
	out := mem.Alloc(8)
	if _, err := Run(Launch{Kernel: b.Kernel(), Grid: 1, Block: 32, Params: []uint64{out}}, mem); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if got := mem.ReadUint32(out); got != 109 {
		t.Errorf("out[0] = %d, want 109 (lane 9 over lane 3)", got)
	}
	if got := mem.ReadUint32(out + 4); got != 131 {
		t.Errorf("out[1] = %d, want 131 (lane 31 over lanes 0..30)", got)
	}
}
