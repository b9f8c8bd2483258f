package emu

import (
	"errors"
	"testing"

	"crat/internal/ptx"
	"crat/internal/sem"
)

// scaleKernel builds out[i] = in[i]*2 + 1 over one element per thread.
func scaleKernel() *ptx.Kernel {
	b := ptx.NewBuilder("scale")
	b.Param("in", ptx.U64).Param("out", ptx.U64)
	idx := b.GlobalIndex()
	pin := b.Reg(ptx.U64)
	pout := b.Reg(ptx.U64)
	b.LdParam(ptx.U64, pin, "in")
	b.LdParam(ptx.U64, pout, "out")
	src := b.AddrOf(pin, idx, 4)
	dst := b.AddrOf(pout, idx, 4)
	v := b.Reg(ptx.U32)
	r := b.Reg(ptx.U32)
	b.Ld(ptx.SpaceGlobal, ptx.U32, v, ptx.MemReg(src, 0))
	b.Mad(ptx.U32, r, ptx.R(v), ptx.Imm(2), ptx.Imm(1))
	b.St(ptx.SpaceGlobal, ptx.U32, ptx.MemReg(dst, 0), ptx.R(r))
	b.Exit()
	return b.Kernel()
}

func TestScaleKernel(t *testing.T) {
	k := scaleKernel()
	grid, block := 3, 64
	n := grid * block
	mem := sem.NewMemory()
	in := mem.Alloc(int64(4 * n))
	out := mem.Alloc(int64(4 * n))
	for i := 0; i < n; i++ {
		mem.WriteUint32(in+uint64(4*i), uint32(i))
	}
	res, err := Run(Launch{Kernel: k, Grid: grid, Block: block, Params: []uint64{in, out}, Provenance: true}, mem)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	for i := 0; i < n; i++ {
		got := mem.ReadUint32(out + uint64(4*i))
		if want := uint32(i)*2 + 1; got != want {
			t.Fatalf("out[%d] = %d, want %d", i, got, want)
		}
	}
	if res.ThreadInsts == 0 || res.WarpInsts == 0 {
		t.Fatalf("expected non-zero instruction counts, got %+v", res)
	}
	st, ok := res.LastStore[out]
	if !ok {
		t.Fatalf("no last-store record for out[0]")
	}
	if st.Value != 1 || st.Block != 0 || st.Lane != 0 {
		t.Fatalf("unexpected store provenance %+v", st)
	}
}

// divergeKernel writes tid*3 for even threads and tid+100 for odd ones,
// exercising the SIMT divergence stack.
func divergeKernel() *ptx.Kernel {
	b := ptx.NewBuilder("diverge")
	b.Param("out", ptx.U64)
	idx := b.GlobalIndex()
	pout := b.Reg(ptx.U64)
	b.LdParam(ptx.U64, pout, "out")
	dst := b.AddrOf(pout, idx, 4)
	bit := b.Reg(ptx.U32)
	p := b.Reg(ptx.Pred)
	r := b.Reg(ptx.U32)
	b.And(ptx.U32, bit, ptx.R(idx), ptx.Imm(1))
	b.Setp(ptx.CmpEq, ptx.U32, p, ptx.R(bit), ptx.Imm(0))
	b.BraIf(p, false, "even")
	b.Add(ptx.U32, r, ptx.R(idx), ptx.Imm(100))
	b.Bra("store")
	b.Label("even").Mul(ptx.U32, r, ptx.R(idx), ptx.Imm(3))
	b.Label("store").St(ptx.SpaceGlobal, ptx.U32, ptx.MemReg(dst, 0), ptx.R(r))
	b.Exit()
	return b.Kernel()
}

func TestDivergence(t *testing.T) {
	k := divergeKernel()
	grid, block := 2, 32
	n := grid * block
	mem := sem.NewMemory()
	out := mem.Alloc(int64(4 * n))
	if _, err := Run(Launch{Kernel: k, Grid: grid, Block: block, Params: []uint64{out}}, mem); err != nil {
		t.Fatalf("Run: %v", err)
	}
	for i := 0; i < n; i++ {
		got := mem.ReadUint32(out + uint64(4*i))
		want := uint32(i) * 3
		if i%2 == 1 {
			want = uint32(i) + 100
		}
		if got != want {
			t.Fatalf("out[%d] = %d, want %d", i, got, want)
		}
	}
}

// reverseKernel reverses a block's elements through shared memory with a
// barrier between the fill and drain phases — wrong barrier handling (or a
// thread-serial executor) cannot produce the right answer.
func reverseKernel(block int) *ptx.Kernel {
	b := ptx.NewBuilder("reverse")
	b.Param("in", ptx.U64).Param("out", ptx.U64)
	b.SharedArray("buf", int64(4*block))
	idx := b.GlobalIndex()
	tid := b.Reg(ptx.U32)
	b.MovSpec(tid, ptx.SpecTidX)
	pin := b.Reg(ptx.U64)
	pout := b.Reg(ptx.U64)
	b.LdParam(ptx.U64, pin, "in")
	b.LdParam(ptx.U64, pout, "out")
	src := b.AddrOf(pin, idx, 4)
	dst := b.AddrOf(pout, idx, 4)
	v := b.Reg(ptx.U32)
	soff := b.Reg(ptx.U32)
	b.Ld(ptx.SpaceGlobal, ptx.U32, v, ptx.MemReg(src, 0))
	b.Shl(ptx.U32, soff, ptx.R(tid), ptx.Imm(2))
	b.St(ptx.SpaceShared, ptx.U32, ptx.MemReg(soff, 0), ptx.R(v))
	b.Bar()
	rtid := b.Reg(ptx.U32)
	roff := b.Reg(ptx.U32)
	rv := b.Reg(ptx.U32)
	b.Sub(ptx.U32, rtid, ptx.Imm(int64(block-1)), ptx.R(tid))
	b.Shl(ptx.U32, roff, ptx.R(rtid), ptx.Imm(2))
	b.Ld(ptx.SpaceShared, ptx.U32, rv, ptx.MemReg(roff, 0))
	b.St(ptx.SpaceGlobal, ptx.U32, ptx.MemReg(dst, 0), ptx.R(rv))
	b.Exit()
	return b.Kernel()
}

func TestBarrierReverse(t *testing.T) {
	block := 128 // 4 warps, so the barrier actually synchronizes
	k := reverseKernel(block)
	mem := sem.NewMemory()
	in := mem.Alloc(int64(4 * block))
	out := mem.Alloc(int64(4 * block))
	for i := 0; i < block; i++ {
		mem.WriteUint32(in+uint64(4*i), uint32(1000+i))
	}
	if _, err := Run(Launch{Kernel: k, Grid: 1, Block: block, Params: []uint64{in, out}}, mem); err != nil {
		t.Fatalf("Run: %v", err)
	}
	for i := 0; i < block; i++ {
		got := mem.ReadUint32(out + uint64(4*i))
		if want := uint32(1000 + block - 1 - i); got != want {
			t.Fatalf("out[%d] = %d, want %d", i, got, want)
		}
	}
}

func TestNullGlobalFault(t *testing.T) {
	b := ptx.NewBuilder("null")
	b.Param("out", ptx.U64)
	z := b.Reg(ptx.U64)
	b.Mov(ptx.U64, z, ptx.Imm(8))
	b.St(ptx.SpaceGlobal, ptx.U32, ptx.MemReg(z, 0), ptx.Imm(1))
	b.Exit()
	mem := sem.NewMemory()
	_, err := Run(Launch{Kernel: b.Kernel(), Grid: 1, Block: 1, Params: []uint64{0}}, mem)
	var f *Fault
	if !errors.As(err, &f) || f.Kind != FaultNullGlobal {
		t.Fatalf("expected null-global fault, got %v", err)
	}
}

func TestLocalOOBFault(t *testing.T) {
	b := ptx.NewBuilder("oob")
	b.LocalArray("frame", 16)
	off := b.Reg(ptx.U64)
	b.Mov(ptx.U64, off, ptx.Imm(64))
	b.St(ptx.SpaceLocal, ptx.U32, ptx.MemReg(off, 0), ptx.Imm(7))
	b.Exit()
	mem := sem.NewMemory()
	_, err := Run(Launch{Kernel: b.Kernel(), Grid: 1, Block: 1}, mem)
	var f *Fault
	if !errors.As(err, &f) || f.Kind != FaultMemOOB {
		t.Fatalf("expected mem-oob fault, got %v", err)
	}
}

func TestLivelockBudget(t *testing.T) {
	b := ptx.NewBuilder("spin")
	b.Label("top").Bra("top")
	b.Exit()
	mem := sem.NewMemory()
	_, err := Run(Launch{Kernel: b.Kernel(), Grid: 1, Block: 32, MaxWarpInsts: 1000}, mem)
	var f *Fault
	if !errors.As(err, &f) || f.Kind != FaultLivelock {
		t.Fatalf("expected livelock fault, got %v", err)
	}
}

func TestDeterminism(t *testing.T) {
	k := divergeKernel()
	run := func() *sem.Memory {
		mem := sem.NewMemory()
		out := mem.Alloc(4 * 64)
		if _, err := Run(Launch{Kernel: k, Grid: 2, Block: 32, Params: []uint64{out}}, mem); err != nil {
			t.Fatalf("Run: %v", err)
		}
		return mem
	}
	a, b := run(), run()
	if !a.Equal(b) {
		addr, va, vb, _ := a.DiffFirst(b)
		t.Fatalf("two identical runs diverged at %#x: %d vs %d", addr, va, vb)
	}
}

// TestReusedStorageStartsZeroed: block storage is pooled across launches,
// so a launch may inherit storage a larger launch left dirty. A kernel that
// reads shared and local memory it never wrote must still see zeros. The
// pool may hand a launch fresh storage instead of the dirty one, so the
// pair runs several times.
func TestReusedStorageStartsZeroed(t *testing.T) {
	const dirtyBlock, cleanBlock = 256, 32

	// dirty fills its whole shared segment, every thread's local frame and
	// forty registers per thread with non-zero words.
	d := ptx.NewBuilder("dirty")
	d.SharedArray("buf", 8*dirtyBlock).LocalArray("frame", 64)
	tid := d.Reg(ptx.U32)
	soff := d.Reg(ptx.U32)
	d.MovSpec(tid, ptx.SpecTidX)
	d.Shl(ptx.U32, soff, ptx.R(tid), ptx.Imm(3))
	d.St(ptx.SpaceShared, ptx.U32, ptx.MemReg(soff, 0), ptx.Imm(0x5eed))
	d.St(ptx.SpaceShared, ptx.U32, ptx.MemReg(soff, 4), ptx.Imm(0x5eed))
	for off := int64(0); off < 64; off += 4 {
		d.St(ptx.SpaceLocal, ptx.U32, ptx.MemSym("frame", off), ptx.Imm(0xf00d))
	}
	for _, r := range d.Regs(ptx.U32, 40) {
		d.Add(ptx.U32, r, ptx.R(tid), ptx.Imm(1))
	}
	d.Exit()
	dirty := d.Kernel()

	// clean stores shared[tid] + frame[0] + frame[3] to out[tid] without
	// ever writing shared or local memory.
	c := ptx.NewBuilder("clean")
	c.Param("out", ptx.U64)
	c.SharedArray("buf", 4*cleanBlock).LocalArray("frame", 16)
	ctid := c.Reg(ptx.U32)
	coff := c.Reg(ptx.U32)
	c.MovSpec(ctid, ptx.SpecTidX)
	c.Shl(ptx.U32, coff, ptx.R(ctid), ptx.Imm(2))
	sv, l0, l3, sum := c.Reg(ptx.U32), c.Reg(ptx.U32), c.Reg(ptx.U32), c.Reg(ptx.U32)
	c.Ld(ptx.SpaceShared, ptx.U32, sv, ptx.MemReg(coff, 0))
	c.Ld(ptx.SpaceLocal, ptx.U32, l0, ptx.MemSym("frame", 0))
	c.Ld(ptx.SpaceLocal, ptx.U32, l3, ptx.MemSym("frame", 12))
	c.Add(ptx.U32, sum, ptx.R(sv), ptx.R(l0))
	c.Add(ptx.U32, sum, ptx.R(sum), ptx.R(l3))
	pout := c.Reg(ptx.U64)
	c.LdParam(ptx.U64, pout, "out")
	dst := c.AddrOf(pout, ctid, 4)
	c.St(ptx.SpaceGlobal, ptx.U32, ptx.MemReg(dst, 0), ptx.R(sum))
	c.Exit()
	clean := c.Kernel()

	for i := 0; i < 16; i++ {
		if _, err := Run(Launch{Kernel: dirty, Grid: 2, Block: dirtyBlock}, sem.NewMemory()); err != nil {
			t.Fatalf("dirty run: %v", err)
		}
		mem := sem.NewMemory()
		out := mem.Alloc(4 * cleanBlock)
		if _, err := Run(Launch{Kernel: clean, Grid: 1, Block: cleanBlock, Params: []uint64{out}}, mem); err != nil {
			t.Fatalf("clean run: %v", err)
		}
		for tid := 0; tid < cleanBlock; tid++ {
			if got := mem.ReadUint32(out + uint64(4*tid)); got != 0 {
				t.Fatalf("round %d: thread %d read %#x from storage it never wrote, want 0", i, tid, got)
			}
		}
	}
}
