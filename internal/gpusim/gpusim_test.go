package gpusim

import (
	"strings"
	"testing"

	"crat/internal/ptx"
	"crat/internal/regalloc"
	"crat/internal/sem"
	"crat/internal/spillopt"
)

// buildVecAdd returns out[i] = a[i] + b[i] with a bounds guard.
func buildVecAdd() *ptx.Kernel {
	b := ptx.NewBuilder("vecadd")
	b.Param("a", ptx.U64).Param("b", ptx.U64).Param("out", ptx.U64).Param("n", ptx.U32)
	pa, pb, po := b.Reg(ptx.U64), b.Reg(ptx.U64), b.Reg(ptx.U64)
	n := b.Reg(ptx.U32)
	b.LdParam(ptx.U64, pa, "a").LdParam(ptx.U64, pb, "b").LdParam(ptx.U64, po, "out").LdParam(ptx.U32, n, "n")
	idx := b.GlobalIndex()
	p := b.Reg(ptx.Pred)
	b.Setp(ptx.CmpGe, ptx.U32, p, ptx.R(idx), ptx.R(n))
	b.BraIf(p, false, "DONE")
	aA := b.AddrOf(pa, idx, 4)
	bA := b.AddrOf(pb, idx, 4)
	oA := b.AddrOf(po, idx, 4)
	va, vb, vs := b.Reg(ptx.U32), b.Reg(ptx.U32), b.Reg(ptx.U32)
	b.Ld(ptx.SpaceGlobal, ptx.U32, va, ptx.MemReg(aA, 0))
	b.Ld(ptx.SpaceGlobal, ptx.U32, vb, ptx.MemReg(bA, 0))
	b.Add(ptx.U32, vs, ptx.R(va), ptx.R(vb))
	b.St(ptx.SpaceGlobal, ptx.U32, ptx.MemReg(oA, 0), ptx.R(vs))
	b.Label("DONE").Exit()
	return b.Kernel()
}

func TestVecAddFunctional(t *testing.T) {
	k := buildVecAdd()
	mem := NewMemory()
	const n = 200 // not a multiple of block size: exercises the guard
	a := mem.Alloc(4 * n)
	bb := mem.Alloc(4 * n)
	out := mem.Alloc(4 * 256)
	for i := 0; i < n; i++ {
		mem.WriteUint32(a+uint64(4*i), uint32(i))
		mem.WriteUint32(bb+uint64(4*i), uint32(1000+i))
	}
	sim, err := NewSimulator(FermiConfig(), mem, Launch{
		Kernel: k, Grid: 4, Block: 64,
		Params: []uint64{a, bb, out, n},
	})
	if err != nil {
		t.Fatal(err)
	}
	st, err := sim.Run()
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		got := mem.ReadUint32(out + uint64(4*i))
		want := uint32(1000 + 2*i)
		if got != want {
			t.Fatalf("out[%d] = %d, want %d", i, got, want)
		}
	}
	// Threads past n must not have written.
	if got := mem.ReadUint32(out + uint64(4*n)); got != 0 {
		t.Errorf("out[%d] = %d, want 0 (guard failed)", n, got)
	}
	if st.Cycles <= 0 || st.WarpInsts <= 0 {
		t.Errorf("bogus stats: %+v", st)
	}
	if st.BlocksCompleted != 4 {
		t.Errorf("BlocksCompleted = %d, want 4", st.BlocksCompleted)
	}
}

func TestDivergenceDiamond(t *testing.T) {
	// out[tid] = tid < 16 ? tid*2 : tid*3, in a single warp.
	b := ptx.NewBuilder("diamond")
	b.Param("out", ptx.U64)
	po := b.Reg(ptx.U64)
	b.LdParam(ptx.U64, po, "out")
	tid := b.Reg(ptx.U32)
	b.MovSpec(tid, ptx.SpecTidX)
	p := b.Reg(ptx.Pred)
	b.Setp(ptx.CmpLt, ptx.U32, p, ptx.R(tid), ptx.Imm(16))
	r := b.Reg(ptx.U32)
	b.BraIf(p, false, "THEN")
	b.Mul(ptx.U32, r, ptx.R(tid), ptx.Imm(3))
	b.Bra("JOIN")
	b.Label("THEN").Mul(ptx.U32, r, ptx.R(tid), ptx.Imm(2))
	oA := b.AddrOf(po, tid, 4)
	b.Label("JOIN").St(ptx.SpaceGlobal, ptx.U32, ptx.MemReg(oA, 0), ptx.R(r))
	b.Exit()
	k := b.Kernel()

	// The AddrOf above sits between THEN and JOIN lexically; rebuild with
	// address computed before the branch for correctness of both paths.
	_ = k
	b2 := ptx.NewBuilder("diamond")
	b2.Param("out", ptx.U64)
	po2 := b2.Reg(ptx.U64)
	b2.LdParam(ptx.U64, po2, "out")
	tid2 := b2.Reg(ptx.U32)
	b2.MovSpec(tid2, ptx.SpecTidX)
	oA2 := b2.AddrOf(po2, tid2, 4)
	p2 := b2.Reg(ptx.Pred)
	b2.Setp(ptx.CmpLt, ptx.U32, p2, ptx.R(tid2), ptx.Imm(16))
	r2 := b2.Reg(ptx.U32)
	b2.BraIf(p2, false, "THEN")
	b2.Mul(ptx.U32, r2, ptx.R(tid2), ptx.Imm(3))
	b2.Bra("JOIN")
	b2.Label("THEN").Mul(ptx.U32, r2, ptx.R(tid2), ptx.Imm(2))
	b2.Label("JOIN").St(ptx.SpaceGlobal, ptx.U32, ptx.MemReg(oA2, 0), ptx.R(r2))
	b2.Exit()

	mem := NewMemory()
	out := mem.Alloc(4 * 32)
	sim, err := NewSimulator(FermiConfig(), mem, Launch{
		Kernel: b2.Kernel(), Grid: 1, Block: 32, Params: []uint64{out},
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sim.Run(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 32; i++ {
		want := uint32(i * 3)
		if i < 16 {
			want = uint32(i * 2)
		}
		if got := mem.ReadUint32(out + uint64(4*i)); got != want {
			t.Errorf("out[%d] = %d, want %d", i, got, want)
		}
	}
}

func TestLoopExecution(t *testing.T) {
	// out[tid] = sum(0..tid) via a data-dependent loop (divergent exit).
	b := ptx.NewBuilder("loop")
	b.Param("out", ptx.U64)
	po := b.Reg(ptx.U64)
	b.LdParam(ptx.U64, po, "out")
	tid := b.Reg(ptx.U32)
	b.MovSpec(tid, ptx.SpecTidX)
	oA := b.AddrOf(po, tid, 4)
	acc := b.Reg(ptx.U32)
	i := b.Reg(ptx.U32)
	p := b.Reg(ptx.Pred)
	b.Mov(ptx.U32, acc, ptx.Imm(0))
	b.Mov(ptx.U32, i, ptx.Imm(0))
	b.Label("LOOP").Setp(ptx.CmpGt, ptx.U32, p, ptx.R(i), ptx.R(tid))
	b.BraIf(p, false, "DONE")
	b.Add(ptx.U32, acc, ptx.R(acc), ptx.R(i))
	b.Add(ptx.U32, i, ptx.R(i), ptx.Imm(1))
	b.Bra("LOOP")
	b.Label("DONE").St(ptx.SpaceGlobal, ptx.U32, ptx.MemReg(oA, 0), ptx.R(acc))
	b.Exit()

	mem := NewMemory()
	out := mem.Alloc(4 * 64)
	sim, err := NewSimulator(FermiConfig(), mem, Launch{
		Kernel: b.Kernel(), Grid: 1, Block: 64, Params: []uint64{out},
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sim.Run(); err != nil {
		t.Fatal(err)
	}
	for tid := 0; tid < 64; tid++ {
		want := uint32(tid * (tid + 1) / 2)
		if got := mem.ReadUint32(out + uint64(4*tid)); got != want {
			t.Fatalf("out[%d] = %d, want %d", tid, got, want)
		}
	}
}

func TestBarrierAndShared(t *testing.T) {
	// shared[tid] = tid; barrier; out[tid] = shared[blockDim-1-tid].
	const block = 128
	b := ptx.NewBuilder("reverse")
	b.Param("out", ptx.U64)
	b.SharedArray("buf", 4*block)
	po := b.Reg(ptx.U64)
	b.LdParam(ptx.U64, po, "out")
	tid := b.Reg(ptx.U32)
	b.MovSpec(tid, ptx.SpecTidX)
	sbase := b.Reg(ptx.U32)
	b.Mov(ptx.U32, sbase, ptx.Sym("buf"))
	wAddr := b.Reg(ptx.U32)
	b.Mad(ptx.U32, wAddr, ptx.R(tid), ptx.Imm(4), ptx.R(sbase))
	b.St(ptx.SpaceShared, ptx.U32, ptx.MemReg(wAddr, 0), ptx.R(tid))
	b.Bar()
	rev := b.Reg(ptx.U32)
	b.Sub(ptx.U32, rev, ptx.Imm(block-1), ptx.R(tid))
	rAddr := b.Reg(ptx.U32)
	b.Mad(ptx.U32, rAddr, ptx.R(rev), ptx.Imm(4), ptx.R(sbase))
	v := b.Reg(ptx.U32)
	b.Ld(ptx.SpaceShared, ptx.U32, v, ptx.MemReg(rAddr, 0))
	gidx := b.GlobalIndex()
	oA := b.AddrOf(po, gidx, 4)
	b.St(ptx.SpaceGlobal, ptx.U32, ptx.MemReg(oA, 0), ptx.R(v))
	b.Exit()

	mem := NewMemory()
	out := mem.Alloc(4 * block * 2)
	sim, err := NewSimulator(FermiConfig(), mem, Launch{
		Kernel: b.Kernel(), Grid: 2, Block: block, Params: []uint64{out},
	})
	if err != nil {
		t.Fatal(err)
	}
	st, err := sim.Run()
	if err != nil {
		t.Fatal(err)
	}
	for g := 0; g < 2*block; g++ {
		tid := g % block
		want := uint32(block - 1 - tid)
		if got := mem.ReadUint32(out + uint64(4*g)); got != want {
			t.Fatalf("out[%d] = %d, want %d", g, got, want)
		}
	}
	if st.SharedLoads == 0 || st.SharedStores == 0 {
		t.Error("no shared traffic recorded")
	}
}

func TestBarrierStallsOnSlowWarp(t *testing.T) {
	// Warp 0 runs a long loop before the barrier; warp 1 reaches it
	// immediately and must stall until warp 0 arrives.
	b := ptx.NewBuilder("asym")
	b.Param("out", ptx.U64)
	po := b.Reg(ptx.U64)
	b.LdParam(ptx.U64, po, "out")
	tid := b.Reg(ptx.U32)
	b.MovSpec(tid, ptx.SpecTidX)
	p := b.Reg(ptx.Pred)
	b.Setp(ptx.CmpGe, ptx.U32, p, ptx.R(tid), ptx.Imm(32))
	b.BraIf(p, false, "SYNC") // warp 1 skips the loop
	i := b.Reg(ptx.U32)
	q := b.Reg(ptx.Pred)
	b.Mov(ptx.U32, i, ptx.Imm(0))
	b.Label("SPIN").Setp(ptx.CmpGe, ptx.U32, q, ptx.R(i), ptx.Imm(200))
	b.BraIf(q, false, "SYNC")
	b.Add(ptx.U32, i, ptx.R(i), ptx.Imm(1))
	b.Bra("SPIN")
	b.Label("SYNC").Bar()
	gidx := b.GlobalIndex()
	oA := b.AddrOf(po, gidx, 4)
	b.St(ptx.SpaceGlobal, ptx.U32, ptx.MemReg(oA, 0), ptx.R(tid))
	b.Exit()

	mem := NewMemory()
	out := mem.Alloc(4 * 64)
	sim, err := NewSimulator(FermiConfig(), mem, Launch{
		Kernel: b.Kernel(), Grid: 1, Block: 64, Params: []uint64{out},
	})
	if err != nil {
		t.Fatal(err)
	}
	st, err := sim.Run()
	if err != nil {
		t.Fatal(err)
	}
	if st.StallBarrier == 0 {
		t.Error("no barrier stalls despite asymmetric arrival")
	}
	for i := 0; i < 64; i++ {
		if got := mem.ReadUint32(out + uint64(4*i)); got != uint32(i) {
			t.Fatalf("out[%d] = %d", i, got)
		}
	}
}

// tightestSpillingBudget returns the smallest feasible register budget that
// still produces spills for k, scanning down from MaxReg.
func tightestSpillingBudget(t *testing.T, k *ptx.Kernel) (int, *regalloc.Result) {
	t.Helper()
	max, err := regalloc.MaxReg(k)
	if err != nil {
		t.Fatal(err)
	}
	var best *regalloc.Result
	budget := 0
	for bud := max; bud >= 4; bud-- {
		r, err := regalloc.Allocate(k, regalloc.Options{Regs: bud})
		if err != nil {
			break
		}
		best = r
		budget = bud
	}
	if best == nil || len(best.Spills) == 0 {
		t.Fatal("no feasible spilling budget found")
	}
	return budget, best
}

// tiledKernel builds a cache-sensitivity probe: each block repeatedly sweeps
// a private wsWords-word window of `data`, so the per-block working set is
// wsWords*4 bytes and aggregate L1 pressure scales with TLP.
func tiledKernel(wsWords, sweeps, block int) *ptx.Kernel {
	b := ptx.NewBuilder("tiled")
	b.Param("data", ptx.U64).Param("out", ptx.U64)
	pd, po := b.Reg(ptx.U64), b.Reg(ptx.U64)
	b.LdParam(ptx.U64, pd, "data").LdParam(ptx.U64, po, "out")
	tid := b.Reg(ptx.U32)
	ctaid := b.Reg(ptx.U32)
	b.MovSpec(tid, ptx.SpecTidX)
	b.MovSpec(ctaid, ptx.SpecCtaIdX)
	base := b.Reg(ptx.U32)
	b.Mul(ptx.U32, base, ptx.R(ctaid), ptx.Imm(int64(wsWords)))

	acc := b.Reg(ptx.F32)
	b.Mov(ptx.F32, acc, ptx.FImm(0))
	it := b.Reg(ptx.U32)
	k := b.Reg(ptx.U32)
	p := b.Reg(ptx.Pred)
	q := b.Reg(ptx.Pred)
	b.Mov(ptx.U32, it, ptx.Imm(0))
	b.Label("OUTER").Setp(ptx.CmpGe, ptx.U32, p, ptx.R(it), ptx.Imm(int64(sweeps)))
	b.BraIf(p, false, "END")
	b.Mov(ptx.U32, k, ptx.Imm(0))
	b.Label("INNER").Setp(ptx.CmpGe, ptx.U32, q, ptx.R(k), ptx.Imm(int64(wsWords/32)))
	b.BraIf(q, false, "AFTER")
	// idx = base + ((tid + 32*k) & (wsWords-1))
	off := b.Reg(ptx.U32)
	b.Mad(ptx.U32, off, ptx.R(k), ptx.Imm(32), ptx.R(tid))
	b.And(ptx.U32, off, ptx.R(off), ptx.Imm(int64(wsWords-1)))
	idx := b.Reg(ptx.U32)
	b.Add(ptx.U32, idx, ptx.R(base), ptx.R(off))
	addr := b.AddrOf(pd, idx, 4)
	v := b.Reg(ptx.F32)
	b.Ld(ptx.SpaceGlobal, ptx.F32, v, ptx.MemReg(addr, 0))
	b.Add(ptx.F32, acc, ptx.R(acc), ptx.R(v))
	b.Add(ptx.U32, k, ptx.R(k), ptx.Imm(1))
	b.Bra("INNER")
	b.Label("AFTER").Add(ptx.U32, it, ptx.R(it), ptx.Imm(1))
	b.Bra("OUTER")
	b.Label("END")
	gidx := b.GlobalIndex()
	oA := b.AddrOf(po, gidx, 4)
	b.St(ptx.SpaceGlobal, ptx.F32, ptx.MemReg(oA, 0), ptx.R(acc))
	b.Exit()
	return b.Kernel()
}

func runTiled(t *testing.T, tlp int) Stats {
	t.Helper()
	const wsWords, sweeps, block, grid = 2048, 6, 64, 16
	mem := NewMemory()
	data := mem.Alloc(4 * wsWords * grid)
	out := mem.Alloc(4 * block * grid)
	for i := 0; i < wsWords*grid; i++ {
		mem.WriteFloat32(data+uint64(4*i), 1.0)
	}
	sim, err := NewSimulator(FermiConfig(), mem, Launch{
		Kernel: tiledKernel(wsWords, sweeps, block),
		Grid:   grid, Block: block,
		Params:   []uint64{data, out},
		TLPLimit: tlp,
	})
	if err != nil {
		t.Fatal(err)
	}
	st, err := sim.Run()
	if err != nil {
		t.Fatal(err)
	}
	// Sanity: every thread summed wsWords/32*sweeps ones.
	want := float32((wsWords / 32) * sweeps)
	if got := mem.ReadFloat32(out); got != want {
		t.Fatalf("tlp=%d: out[0] = %v, want %v", tlp, got, want)
	}
	return st
}

func TestThrottlingImprovesCacheBehaviour(t *testing.T) {
	// Working set 8KB/block against a 32KB L1: 8 blocks thrash, 2 fit.
	high := runTiled(t, 8)
	low := runTiled(t, 2)
	if low.L1HitRate() <= high.L1HitRate() {
		t.Errorf("throttling did not improve hit rate: tlp2=%.3f tlp8=%.3f",
			low.L1HitRate(), high.L1HitRate())
	}
	if high.ConcurrentBlocks != 8 || low.ConcurrentBlocks != 2 {
		t.Errorf("TLPs = %d/%d, want 8/2", high.ConcurrentBlocks, low.ConcurrentBlocks)
	}
}

func TestCongestionStallsUnderStreaming(t *testing.T) {
	// A pure streaming load pattern with a large grid produces misses that
	// exhaust MSHRs, which must surface as congestion stalls.
	st := runTiled(t, 8)
	if st.StallCongestion == 0 {
		t.Error("no congestion stalls recorded under heavy miss traffic")
	}
	if st.L1Misses == 0 || st.DRAMBytes == 0 {
		t.Error("no misses / DRAM traffic recorded")
	}
}

func TestOccupancy(t *testing.T) {
	c := FermiConfig()
	cases := []struct {
		regs  int
		shm   int64
		block int
		want  int
	}{
		{32, 0, 192, 5},         // register-limited: 32768/(32*192)=5.33
		{21, 0, 256, 6},         // thread-limited: 1536/256=6
		{16, 0, 64, 8},          // block-limited: 8
		{20, 24 * 1024, 128, 2}, // shared-limited: 48K/24K
		{200, 0, 512, 0},        // does not fit: 200*512 > 32768
		{63, 0, 256, 2},         // 32768/16128=2.03
	}
	for _, tc := range cases {
		if got := c.Occupancy(tc.regs, tc.shm, tc.block); got != tc.want {
			t.Errorf("Occupancy(regs=%d shm=%d block=%d) = %d, want %d",
				tc.regs, tc.shm, tc.block, got, tc.want)
		}
	}
	if got := c.MinReg(); got != 21 {
		t.Errorf("MinReg = %d, want 21", got)
	}
	k := KeplerConfig()
	if got := k.MinReg(); got != 32 {
		t.Errorf("Kepler MinReg = %d, want 32", got)
	}
	if got := k.Occupancy(32, 0, 256); got != 8 {
		t.Errorf("Kepler Occupancy = %d, want 8 (2048/256)", got)
	}
}

func TestAllocatedKernelEquivalence(t *testing.T) {
	// The paper validates that executions with and without register
	// allocation are consistent (§5.2). Run the same launch on the virtual
	// kernel, a tightly allocated kernel (with spills), and a spill-to-
	// shared optimized kernel; all outputs must match.
	k := tiledKernel(512, 2, 64)
	budget, alloc := tightestSpillingBudget(t, k)
	opt, err := spillopt.Optimize(alloc, regalloc.Options{Regs: budget}, spillopt.Options{
		SpareShmBytes: 16 * 1024,
		BlockSize:     64,
	})
	if err != nil {
		t.Fatal(err)
	}

	run := func(kern *ptx.Kernel) []uint32 {
		const grid, block, wsWords = 4, 64, 512
		mem := NewMemory()
		data := mem.Alloc(4 * wsWords * grid)
		out := mem.Alloc(4 * block * grid)
		for i := 0; i < wsWords*grid; i++ {
			mem.WriteFloat32(data+uint64(4*i), float32(i%7))
		}
		sim, err := NewSimulator(FermiConfig(), mem, Launch{
			Kernel: kern, Grid: grid, Block: block,
			Params: []uint64{data, out},
		})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := sim.Run(); err != nil {
			t.Fatal(err)
		}
		res := make([]uint32, block*grid)
		for i := range res {
			res[i] = mem.ReadUint32(out + uint64(4*i))
		}
		return res
	}

	ref := run(k)
	got := run(alloc.Kernel)
	for i := range ref {
		if ref[i] != got[i] {
			t.Fatalf("allocated kernel diverges at %d: %x vs %x", i, got[i], ref[i])
		}
	}
	got2 := run(opt.Alloc.Kernel)
	for i := range ref {
		if ref[i] != got2[i] {
			t.Fatalf("spill-optimized kernel diverges at %d: %x vs %x", i, got2[i], ref[i])
		}
	}
	if opt.Overhead.Shareds() > 0 {
		// Shared spills must have produced dynamic shared traffic.
		// (Checked through a fresh run's stats.)
		mem := NewMemory()
		data := mem.Alloc(4 * 512 * 4)
		out := mem.Alloc(4 * 64 * 4)
		sim, _ := NewSimulator(FermiConfig(), mem, Launch{
			Kernel: opt.Alloc.Kernel, Grid: 4, Block: 64,
			Params: []uint64{data, out},
		})
		st, err := sim.Run()
		if err != nil {
			t.Fatal(err)
		}
		if st.SpillSharedOps == 0 {
			t.Error("no dynamic shared spill ops despite shared sub-stacks")
		}
	}
}

func TestSpilledKernelCountsLocalOps(t *testing.T) {
	k := tiledKernel(512, 2, 64)
	_, alloc := tightestSpillingBudget(t, k)
	mem := NewMemory()
	data := mem.Alloc(4 * 512 * 2)
	out := mem.Alloc(4 * 64 * 2)
	sim, err := NewSimulator(FermiConfig(), mem, Launch{
		Kernel: alloc.Kernel, Grid: 2, Block: 64,
		Params: []uint64{data, out},
	})
	if err != nil {
		t.Fatal(err)
	}
	st, err := sim.Run()
	if err != nil {
		t.Fatal(err)
	}
	if st.LocalOps() == 0 || st.SpillLocalOps == 0 {
		t.Errorf("local ops = %d, spill ops = %d; want both > 0", st.LocalOps(), st.SpillLocalOps)
	}
}

func TestSchedulerPolicies(t *testing.T) {
	for _, pol := range []SchedPolicy{SchedGTO, SchedLRR} {
		cfg := FermiConfig()
		cfg.Scheduler = pol
		mem := NewMemory()
		const n = 256
		a := mem.Alloc(4 * n)
		bb := mem.Alloc(4 * n)
		out := mem.Alloc(4 * n)
		for i := 0; i < n; i++ {
			mem.WriteUint32(a+uint64(4*i), uint32(i))
			mem.WriteUint32(bb+uint64(4*i), uint32(i))
		}
		sim, err := NewSimulator(cfg, mem, Launch{
			Kernel: buildVecAdd(), Grid: 4, Block: 64,
			Params: []uint64{a, bb, out, n},
		})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := sim.Run(); err != nil {
			t.Fatalf("%v: %v", pol, err)
		}
		if got := mem.ReadUint32(out + 4*10); got != 20 {
			t.Errorf("%v: wrong result %d", pol, got)
		}
	}
}

func TestPartialWarp(t *testing.T) {
	mem := NewMemory()
	const n = 48 // 1.5 warps
	a := mem.Alloc(4 * n)
	bb := mem.Alloc(4 * n)
	out := mem.Alloc(4 * n)
	for i := 0; i < n; i++ {
		mem.WriteUint32(a+uint64(4*i), 7)
		mem.WriteUint32(bb+uint64(4*i), uint32(i))
	}
	sim, err := NewSimulator(FermiConfig(), mem, Launch{
		Kernel: buildVecAdd(), Grid: 1, Block: 48,
		Params: []uint64{a, bb, out, n},
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sim.Run(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if got := mem.ReadUint32(out + uint64(4*i)); got != uint32(7+i) {
			t.Fatalf("out[%d] = %d, want %d", i, got, 7+i)
		}
	}
}

func TestDeterminism(t *testing.T) {
	a := runTiled(t, 4)
	b := runTiled(t, 4)
	if a.Cycles != b.Cycles || a.L1Hits != b.L1Hits || a.WarpInsts != b.WarpInsts {
		t.Errorf("simulation not deterministic: %+v vs %+v", a, b)
	}
}

func TestMeasureCosts(t *testing.T) {
	c, err := MeasureCosts(FermiConfig())
	if err != nil {
		t.Fatal(err)
	}
	if c.Shared <= 0 || c.Local <= 0 {
		t.Fatalf("non-positive costs: %+v", c)
	}
	// Local (through L1, hit latency 34) must cost more than shared (26).
	if c.Local <= c.Shared {
		t.Errorf("local cost %.1f should exceed shared cost %.1f", c.Local, c.Shared)
	}
	// Both should be within a factor of ~2 of the configured latencies.
	cfg := FermiConfig()
	if c.Shared < float64(cfg.SharedLat)/2 || c.Shared > float64(cfg.SharedLat)*2 {
		t.Errorf("shared cost %.1f far from configured %d", c.Shared, cfg.SharedLat)
	}
	// The memo is keyed by the whole Config, not its Name: a slower
	// shared memory under the same name is measured afresh.
	slow := FermiConfig()
	slow.SharedLat *= 2
	cs, err := MeasureCosts(slow)
	if err != nil {
		t.Fatal(err)
	}
	if cs.Shared <= c.Shared || cs.Local != c.Local {
		t.Errorf("SharedLat doubled under the same name: costs %+v, want Shared above %+v and Local equal", cs, c)
	}
}

func TestEnergyModel(t *testing.T) {
	m := DefaultEnergyModel()
	cfg := FermiConfig()
	low := runTiled(t, 2)
	high := runTiled(t, 8)
	eLow := m.Energy(cfg, low)
	eHigh := m.Energy(cfg, high)
	if eLow <= 0 || eHigh <= 0 {
		t.Fatalf("non-positive energy: %v %v", eLow, eHigh)
	}
	// The thrashing configuration moves more DRAM bytes; with comparable
	// work its energy must be at least the cache-friendly one's.
	if high.DRAMBytes <= low.DRAMBytes {
		t.Errorf("DRAM bytes: tlp8=%d should exceed tlp2=%d", high.DRAMBytes, low.DRAMBytes)
	}
}

func TestMemoryReadWrite(t *testing.T) {
	m := NewMemory()
	addr := m.Alloc(64)
	m.WriteUint32(addr, 0xdeadbeef)
	if got := m.ReadUint32(addr); got != 0xdeadbeef {
		t.Errorf("u32 roundtrip: %x", got)
	}
	m.WriteUint64(addr+8, 0x1122334455667788)
	if got := m.ReadUint64(addr + 8); got != 0x1122334455667788 {
		t.Errorf("u64 roundtrip: %x", got)
	}
	m.WriteFloat32(addr+16, 3.25)
	if got := m.ReadFloat32(addr + 16); got != 3.25 {
		t.Errorf("f32 roundtrip: %v", got)
	}
	m.WriteFloat64(addr+24, -1.5e300)
	if got := m.ReadFloat64(addr + 24); got != -1.5e300 {
		t.Errorf("f64 roundtrip: %v", got)
	}
	// Cross-page write.
	edge := uint64(sem.PageSize - 2)
	m.WriteUint32(edge, 0xa1b2c3d4)
	if got := m.ReadUint32(edge); got != 0xa1b2c3d4 {
		t.Errorf("cross-page roundtrip: %x", got)
	}
}

func TestCacheLRUAndMSHR(t *testing.T) {
	c := newCache(CacheConfig{SizeBytes: 1024, Assoc: 2, LineBytes: 128, MSHRs: 2})
	// 4 sets; lines 0, 4, 8 map to set 0.
	c.access(0, 0, 10)
	c.access(4, 1, 10)
	if c.freeMSHRs() != 0 {
		t.Errorf("freeMSHRs = %d, want 0", c.freeMSHRs())
	}
	c.expire(10)
	if c.freeMSHRs() != 2 {
		t.Errorf("after expire freeMSHRs = %d, want 2", c.freeMSHRs())
	}
	if hit, _ := c.probe(0); !hit {
		t.Error("line 0 should be resident")
	}
	// Touch 0 (refresh LRU), insert 8: must evict 4.
	c.access(0, 11, 0)
	c.access(8, 12, 20)
	c.expire(20)
	if hit, _ := c.probe(4); hit {
		t.Error("line 4 should have been evicted (LRU)")
	}
	if hit, _ := c.probe(0); !hit {
		t.Error("line 0 should have survived (recently used)")
	}
	// Merge: miss on an in-flight line shares the MSHR.
	c.access(12, 21, 40)
	before := len(c.inflight)
	_, ready := c.access(12, 22, 99)
	if len(c.inflight) != before || ready != 40 {
		t.Errorf("MSHR merge failed: inflight=%d ready=%d", len(c.inflight), ready)
	}
	// Write-evict.
	c.evict(0)
	if hit, _ := c.probe(0); hit {
		t.Error("line 0 should be evicted")
	}
}

func TestExtraSharedThrottlesTLP(t *testing.T) {
	// The paper's Figure 2 methodology: a dummy shared array reduces TLP.
	mem := NewMemory()
	const n = 256
	a := mem.Alloc(4 * n)
	bb := mem.Alloc(4 * n)
	out := mem.Alloc(4 * n)
	sim, err := NewSimulator(FermiConfig(), mem, Launch{
		Kernel: buildVecAdd(), Grid: 8, Block: 64,
		Params:           []uint64{a, bb, out, n},
		ExtraSharedBytes: 20 * 1024, // 48KB/20KB -> 2 blocks
	})
	if err != nil {
		t.Fatal(err)
	}
	st, err := sim.Run()
	if err != nil {
		t.Fatal(err)
	}
	if st.ConcurrentBlocks != 2 {
		t.Errorf("ConcurrentBlocks = %d, want 2", st.ConcurrentBlocks)
	}
}

// TestInPlaceGrowthReanalyzed guards the staleness key of vec.ProgramFor's
// cache: a kernel grown in place after it was simulated is a new kernel
// version, so the next simulation runs (and validates) the grown
// instruction stream, not the cached analysis of the shorter one.
func TestInPlaceGrowthReanalyzed(t *testing.T) {
	b := ptx.NewBuilder("grow")
	r := b.Reg(ptx.U32)
	b.Mov(ptx.U32, r, ptx.Imm(1))
	k := b.Kernel()
	run := func() (Stats, error) {
		sim, err := NewSimulator(FermiConfig(), NewMemory(), Launch{Kernel: k, Grid: 1, Block: 64})
		if err != nil {
			return Stats{}, err
		}
		return sim.Run()
	}
	before, err := run()
	if err != nil {
		t.Fatal(err)
	}
	b.Add(ptx.U32, r, ptx.R(r), ptx.Imm(1))
	after, err := run()
	if err != nil {
		t.Fatal(err)
	}
	if after.WarpInsts == before.WarpInsts {
		t.Errorf("WarpInsts = %d both before and after appending an instruction: the stale analysis was served",
			after.WarpInsts)
	}
	b.Emit(ptx.Inst{Op: ptx.OpBra, Target: "NOWHERE", Guard: ptx.NoReg})
	if _, err := run(); err == nil || !strings.Contains(err.Error(), "NOWHERE") {
		t.Errorf("appended bra to an undefined label: err = %v, want the Validate error", err)
	}
}
