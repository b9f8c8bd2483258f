package gpusim_test

import (
	"errors"
	"testing"

	"crat/internal/emu"
	"crat/internal/emu/ptxgen"
	"crat/internal/gpusim"
	"crat/internal/oracle"
	"crat/internal/ptx"
	"crat/internal/workloads"
)

// crossCheck runs one launch through both execution engines — the SoA timing
// simulator and the functional emulator — on identical memory images and
// requires byte-identical final global memory and identical instruction
// counts. Both engines run the same lowered vec.Program, so any
// disagreement means one of them ordered, masked, or rewrote execution
// differently. It returns the simulator's final memory.
func crossCheck(t *testing.T, k *ptx.Kernel, grid, block int, setup func(*gpusim.Memory) []uint64) *gpusim.Memory {
	t.Helper()

	simMem := gpusim.NewMemory()
	simParams := setup(simMem)
	sim, err := gpusim.NewSimulator(gpusim.FermiConfig(), simMem, gpusim.Launch{
		Kernel: k, Grid: grid, Block: block, Params: simParams,
	})
	if err != nil {
		t.Fatalf("simulator: %v", err)
	}
	stats, err := sim.Run()
	if err != nil {
		t.Fatalf("simulator run: %v", err)
	}

	emuMem := gpusim.NewMemory()
	emuParams := setup(emuMem)
	res, err := emu.Run(emu.Launch{
		Kernel: k, Grid: grid, Block: block, Params: emuParams,
	}, emuMem)
	if err != nil {
		t.Fatalf("emulator run: %v", err)
	}

	if stats.WarpInsts != res.WarpInsts {
		t.Errorf("warp instruction counts disagree: sim=%d emu=%d", stats.WarpInsts, res.WarpInsts)
	}
	if stats.ThreadInsts != res.ThreadInsts {
		t.Errorf("thread instruction counts disagree: sim=%d emu=%d", stats.ThreadInsts, res.ThreadInsts)
	}
	if addr, a, b, diff := simMem.DiffFirst(emuMem); diff {
		t.Fatalf("engines disagree at global[%#x]: sim=%#x emu=%#x", addr, a, b)
	}
	return simMem
}

// TestEmulatorCrossCheck cross-checks every seed workload kernel. The two
// engines share sem for arithmetic; this pins the oracle's emulator to the
// simulator's observable semantics.
func TestEmulatorCrossCheck(t *testing.T) {
	for _, p := range workloads.All() {
		p := p
		t.Run(p.Abbr, func(t *testing.T) {
			t.Parallel()
			// Shrunken grids keep the cross-product affordable; per-block
			// behaviour (barriers, shared staging, divergence) is unchanged.
			grid := 2
			if p.Grid < grid {
				grid = p.Grid
			}
			app := p.AppWithInput(workloads.Input{
				Name: "crosscheck", GridScale: float64(grid) / float64(p.Grid), DataScale: 1,
			})
			crossCheck(t, app.Kernel, app.Grid, app.Block, app.Setup)
		})
	}

	// Hand-built shapes for SIMT rules no seed workload reaches. Both engines
	// run one copy of these rules (internal/vec), so each case also pins the
	// value every thread must store to out: agreement alone cannot show a
	// rule is right.
	for _, tc := range []struct {
		name        string
		build       func() *ptx.Kernel
		grid, block int
		params      []uint64 // the values after out
		want        func(tid uint64) uint64
		width       int // bytes each thread stores
	}{
		{
			// Lanes 20-31 of each warp exit inside a divergent branch while
			// lanes 0-19 reach bar.sync, then read the other warp's slot.
			name:  "exit-in-divergence-at-barrier",
			build: exitBarrierKernel,
			grid:  1, block: 64, width: 4,
			want: func(tid uint64) uint64 {
				if tid%32 >= 20 {
					return 0
				}
				return (tid ^ 32) + 1
			},
		},
		{
			// Odd lanes branch, even lanes fall through, and lanes 2k and
			// 2k+1 store to slot k at the reconvergence point: one joint
			// store in ascending lane order, so the odd lane's value lands.
			name:  "same-address-store-at-reconvergence",
			build: reconvergeStoreKernel,
			grid:  1, block: 32, width: 4,
			want: func(slot uint64) uint64 {
				if slot >= 16 {
					return 0
				}
				return 2000 + 2*slot + 1
			},
		},
		{
			// Only the lanes whose guard predicate is false store.
			name:  "negated-guard",
			build: negatedGuardKernel,
			grid:  1, block: 32, width: 4,
			want: func(tid uint64) uint64 {
				if tid%2 == 0 {
					return 0
				}
				return tid + 1
			},
		},
		{
			// A 40-thread block is one full warp and an 8-lane tail warp.
			name:  "specials-in-tail-warp",
			build: specialsKernel,
			grid:  3, block: 40, width: 4,
			want: func(gid uint64) uint64 {
				cta, tid := gid/40, gid%40
				return tid%32 + tid/32<<8 + cta<<16 + 3<<24
			},
		},
		{
			// The param block is out(8) a(4) h(2): 14 bytes. A read may end
			// exactly at its end (ld-param-past-block-end in
			// TestFaultCrossCheck reads past it).
			name:  "ld-param-at-block-end",
			build: paramEndKernel,
			grid:  1, block: 32, width: 8,
			params: []uint64{0x12345678, 0xbeef},
			want:   func(uint64) uint64 { return 0xbeef1234 },
		},
	} {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			var out uint64
			threads := uint64(tc.grid * tc.block)
			mem := crossCheck(t, tc.build(), tc.grid, tc.block, func(mem *gpusim.Memory) []uint64 {
				out = mem.Alloc(int64(threads) * int64(tc.width))
				return append([]uint64{out}, tc.params...)
			})
			for i := uint64(0); i < threads; i++ {
				if got, want := mem.Read(out+i*uint64(tc.width), tc.width), tc.want(i); got != want {
					t.Fatalf("thread %d stored %#x, want %#x", i, got, want)
				}
			}
		})
	}
}

// TestPtxgenCrossCheck cross-checks a randomized kernel corpus: spill-heavy
// chains, divergence, predication, bounded loops, shared staging — shapes no
// seed workload pins down. Inputs come from the oracle's seeded generator so
// the run doubles as a check that the oracle substrate and the simulator see
// the same semantics.
func TestPtxgenCrossCheck(t *testing.T) {
	const grid = 2
	for seed := int64(1); seed <= 24; seed++ {
		seed := seed
		t.Run(string(rune('a'+seed-1)), func(t *testing.T) {
			t.Parallel()
			k := ptxgen.Generate(ptxgen.Config{Seed: seed})
			block := 64
			crossCheck(t, k, grid, block, func(mem *gpusim.Memory) []uint64 {
				in, params := oracle.GenInputs(k, grid, block, seed)
				// GenInputs builds its own memory; replay its image into the
				// engine's memory so both engines observe identical bytes.
				*mem = *in.Clone()
				return params
			})
		})
	}
}

// TestFaultCrossCheck requires the two engines to agree on structured
// faults: same classification, same instruction, and the same offending
// lane — the per-lane attribution the SoA vectorization must preserve.
func TestFaultCrossCheck(t *testing.T) {
	cases := []struct {
		name    string
		build   func() *ptx.Kernel
		simKind gpusim.FaultKind
		emuKind emu.FaultKind
		space   ptx.Space
	}{
		{
			name: "null-global",
			build: func() *ptx.Kernel {
				b := ptx.NewBuilder("xnull")
				b.Param("out", ptx.U64)
				addr := b.Reg(ptx.U64)
				v := b.Reg(ptx.U32)
				b.Mov(ptx.U64, addr, ptx.Imm(16))
				b.Ld(ptx.SpaceGlobal, ptx.U32, v, ptx.MemReg(addr, 0))
				b.St(ptx.SpaceGlobal, ptx.U32, ptx.MemReg(addr, 0), ptx.R(v))
				b.Exit()
				return b.Kernel()
			},
			simKind: gpusim.FaultNullGlobal,
			emuKind: emu.FaultNullGlobal,
			space:   ptx.SpaceGlobal,
		},
		{
			name: "shared-oob",
			build: func() *ptx.Kernel {
				// Lane l stores at shared[4*l]; the 16-byte segment faults
				// first at lane 4.
				b := ptx.NewBuilder("xsoob")
				b.Param("out", ptx.U64)
				b.SharedArray("stage", 16)
				tid := b.Reg(ptx.U32)
				off := b.Reg(ptx.U64)
				b.MovSpec(tid, ptx.SpecTidX)
				b.Shl(ptx.U32, tid, ptx.R(tid), ptx.Imm(2))
				b.Cvt(ptx.U64, ptx.U32, off, ptx.R(tid))
				b.St(ptx.SpaceShared, ptx.U32, ptx.MemReg(off, 0), ptx.R(tid))
				b.Exit()
				return b.Kernel()
			},
			simKind: gpusim.FaultMemOOB,
			emuKind: emu.FaultMemOOB,
			space:   ptx.SpaceShared,
		},
		{
			// A kernel with no local array has zero-length frames: every
			// local access is out of bounds.
			name: "local-oob-without-frame",
			build: func() *ptx.Kernel {
				b := ptx.NewBuilder("xlnoframe")
				b.Param("out", ptx.U64)
				addr := b.Reg(ptx.U64)
				v := b.Reg(ptx.U32)
				b.Mov(ptx.U64, addr, ptx.Imm(0))
				b.Ld(ptx.SpaceLocal, ptx.U32, v, ptx.MemReg(addr, 0))
				b.Exit()
				return b.Kernel()
			},
			simKind: gpusim.FaultMemOOB,
			emuKind: emu.FaultMemOOB,
			space:   ptx.SpaceLocal,
		},
		{
			// Lane l reads 4 param bytes at l through a register base,
			// which no symbol's bounds check reaches: the 8-byte param
			// block faults first at lane 5.
			name: "ld-param-past-block-end",
			build: func() *ptx.Kernel {
				b := ptx.NewBuilder("xparampast")
				b.Param("out", ptx.U64)
				tid := b.Reg(ptx.U32)
				off := b.Reg(ptx.U64)
				v := b.Reg(ptx.U32)
				b.MovSpec(tid, ptx.SpecTidX)
				b.Cvt(ptx.U64, ptx.U32, off, ptx.R(tid))
				b.Ld(ptx.SpaceParam, ptx.U32, v, ptx.MemReg(off, 0))
				b.Exit()
				return b.Kernel()
			},
			simKind: gpusim.FaultMemOOB,
			emuKind: emu.FaultMemOOB,
			space:   ptx.SpaceParam,
		},
		{
			name: "exec",
			build: func() *ptx.Kernel {
				b := ptx.NewBuilder("xexec")
				b.Param("out", ptx.U64)
				r := b.Reg(ptx.U32)
				b.Sfu(ptx.OpSin, ptx.U32, r, ptx.Imm(1))
				b.Exit()
				return b.Kernel()
			},
			simKind: gpusim.FaultExec,
			emuKind: emu.FaultExec,
		},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			k := tc.build()
			launch := func() (int, int, []uint64) { return 1, 32, []uint64{0} }

			grid, block, params := launch()
			sim, err := gpusim.NewSimulator(gpusim.FermiConfig(), gpusim.NewMemory(), gpusim.Launch{
				Kernel: k, Grid: grid, Block: block, Params: params,
			})
			if err != nil {
				t.Fatalf("simulator: %v", err)
			}
			_, err = sim.Run()
			var sf *gpusim.Fault
			if !errors.As(err, &sf) {
				t.Fatalf("simulator returned %v, want a fault", err)
			}

			_, err = emu.Run(emu.Launch{
				Kernel: k, Grid: grid, Block: block, Params: params,
			}, gpusim.NewMemory())
			var ef *emu.Fault
			if !errors.As(err, &ef) {
				t.Fatalf("emulator returned %v, want a fault", err)
			}

			if sf.Kind != tc.simKind {
				t.Errorf("simulator fault kind = %v, want %v", sf.Kind, tc.simKind)
			}
			if ef.Kind != tc.emuKind {
				t.Errorf("emulator fault kind = %v, want %v", ef.Kind, tc.emuKind)
			}
			if sf.Space != tc.space || ef.Space != tc.space {
				t.Errorf("fault space: sim %v, emu %v, want %v", sf.Space, ef.Space, tc.space)
			}
			if sf.PC != ef.PC || sf.Warp != ef.Warp || sf.Lane != ef.Lane {
				t.Errorf("fault location disagrees: sim pc=%d warp=%d lane=%d, emu pc=%d warp=%d lane=%d",
					sf.PC, sf.Warp, sf.Lane, ef.PC, ef.Warp, ef.Lane)
			}
		})
	}
}

// exitBarrierKernel: see the exit-in-divergence-at-barrier case.
func exitBarrierKernel() *ptx.Kernel {
	b := ptx.NewBuilder("xexitbar")
	b.Param("out", ptx.U64)
	b.SharedArray("stage", 64*4)
	out := b.Reg(ptx.U64)
	b.LdParam(ptx.U64, out, "out")
	tid := b.Reg(ptx.U32)
	b.MovSpec(tid, ptx.SpecTidX)
	lane := b.Reg(ptx.U32)
	b.And(ptx.U32, lane, ptx.R(tid), ptx.Imm(31))
	p := b.Reg(ptx.Pred)
	b.Setp(ptx.CmpGe, ptx.U32, p, ptx.R(lane), ptx.Imm(20))
	b.BraIf(p, false, "DONE")
	v := b.Reg(ptx.U32)
	b.Add(ptx.U32, v, ptx.R(tid), ptx.Imm(1))
	b.St(ptx.SpaceShared, ptx.U32, ptx.MemReg(b.AddrOf(b.Reg(ptx.U64), tid, 4), 0), ptx.R(v))
	b.Bar()
	other := b.Reg(ptx.U32)
	b.Xor(ptx.U32, other, ptx.R(tid), ptx.Imm(32))
	b.Ld(ptx.SpaceShared, ptx.U32, v, ptx.MemReg(b.AddrOf(b.Reg(ptx.U64), other, 4), 0))
	b.St(ptx.SpaceGlobal, ptx.U32, ptx.MemReg(b.AddrOf(out, tid, 4), 0), ptx.R(v))
	b.Label("DONE").Exit()
	return b.Kernel()
}

// reconvergeStoreKernel: see the same-address-store-at-reconvergence case.
func reconvergeStoreKernel() *ptx.Kernel {
	b := ptx.NewBuilder("xreconv")
	b.Param("out", ptx.U64)
	out := b.Reg(ptx.U64)
	b.LdParam(ptx.U64, out, "out")
	tid := b.Reg(ptx.U32)
	b.MovSpec(tid, ptx.SpecTidX)
	odd := b.Reg(ptx.U32)
	b.And(ptx.U32, odd, ptx.R(tid), ptx.Imm(1))
	slot := b.Reg(ptx.U32)
	b.Sub(ptx.U32, slot, ptx.R(tid), ptx.R(odd))
	addr := b.AddrOf(out, slot, 2)
	p := b.Reg(ptx.Pred)
	b.Setp(ptx.CmpNe, ptx.U32, p, ptx.R(odd), ptx.Imm(0))
	v := b.Reg(ptx.U32)
	b.BraIf(p, false, "ODD")
	b.Add(ptx.U32, v, ptx.R(tid), ptx.Imm(1000))
	b.Bra("JOIN")
	b.Label("ODD").Add(ptx.U32, v, ptx.R(tid), ptx.Imm(2000))
	b.Label("JOIN").St(ptx.SpaceGlobal, ptx.U32, ptx.MemReg(addr, 0), ptx.R(v))
	b.Exit()
	return b.Kernel()
}

// negatedGuardKernel stores tid+1 under @!p, p = "tid is even".
func negatedGuardKernel() *ptx.Kernel {
	b := ptx.NewBuilder("xnegguard")
	b.Param("out", ptx.U64)
	out := b.Reg(ptx.U64)
	b.LdParam(ptx.U64, out, "out")
	tid := b.Reg(ptx.U32)
	b.MovSpec(tid, ptx.SpecTidX)
	odd := b.Reg(ptx.U32)
	b.And(ptx.U32, odd, ptx.R(tid), ptx.Imm(1))
	p := b.Reg(ptx.Pred)
	b.Setp(ptx.CmpEq, ptx.U32, p, ptx.R(odd), ptx.Imm(0))
	v := b.Reg(ptx.U32)
	b.Add(ptx.U32, v, ptx.R(tid), ptx.Imm(1))
	addr := b.AddrOf(out, tid, 4)
	b.If(p, true).St(ptx.SpaceGlobal, ptx.U32, ptx.MemReg(addr, 0), ptx.R(v))
	b.Exit()
	return b.Kernel()
}

// specialsKernel stores lane + warp<<8 + ctaid<<16 + nctaid<<24 per thread.
func specialsKernel() *ptx.Kernel {
	b := ptx.NewBuilder("xspecial")
	b.Param("out", ptx.U64)
	out := b.Reg(ptx.U64)
	b.LdParam(ptx.U64, out, "out")
	gid := b.GlobalIndex()
	v := b.Reg(ptx.U32)
	b.MovSpec(v, ptx.SpecLaneId)
	for _, f := range []struct {
		sp    ptx.Special
		shift int64
	}{{ptx.SpecWarpId, 1 << 8}, {ptx.SpecCtaIdX, 1 << 16}, {ptx.SpecNCtaIdX, 1 << 24}} {
		r := b.Reg(ptx.U32)
		b.MovSpec(r, f.sp)
		b.Mad(ptx.U32, v, ptx.R(r), ptx.Imm(f.shift), ptx.R(v))
	}
	b.St(ptx.SpaceGlobal, ptx.U32, ptx.MemReg(b.AddrOf(out, gid, 4), 0), ptx.R(v))
	b.Exit()
	return b.Kernel()
}

// paramEndKernel reads 4 bytes at 10, ending exactly at the end of the
// 14-byte param block, and stores them. A register base reaches bytes no
// symbol's bounds allow.
func paramEndKernel() *ptx.Kernel {
	b := ptx.NewBuilder("xparamend")
	b.Param("out", ptx.U64)
	b.Param("a", ptx.U32)
	b.Param("h", ptx.U16)
	out := b.Reg(ptx.U64)
	b.LdParam(ptx.U64, out, "out")
	off := b.Reg(ptx.U64)
	b.Mov(ptx.U64, off, ptx.Imm(10))
	end := b.Reg(ptx.U32)
	b.Ld(ptx.SpaceParam, ptx.U32, end, ptx.MemReg(off, 0))
	v := b.Reg(ptx.U64)
	b.Cvt(ptx.U64, ptx.U32, v, ptx.R(end))
	tid := b.Reg(ptx.U32)
	b.MovSpec(tid, ptx.SpecTidX)
	b.St(ptx.SpaceGlobal, ptx.U64, ptx.MemReg(b.AddrOf(out, tid, 8), 0), ptx.R(v))
	b.Exit()
	return b.Kernel()
}
