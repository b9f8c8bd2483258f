package gpusim_test

import (
	"errors"
	"testing"

	"crat/internal/emu"
	"crat/internal/gpusim"
	"crat/internal/ptx"
	"crat/internal/vec"
)

// TestLoweringFaults pins how a kernel's lowering treats instructions it
// cannot run, through both engines. A malformed shape never reaches the
// lowering: the verifier rejects the kernel, and vec.ProgramFor, the
// simulator and the emulator all fail with the verifier's message. An
// instruction the verifier accepts but sem cannot evaluate becomes a fault
// op: it faults FaultExec with its error text on the first lane that
// executes it, and a kernel whose guard skips it on every lane runs clean.
func TestLoweringFaults(t *testing.T) {
	malformed := []struct {
		name string
		inst func(b *ptx.Builder) ptx.Inst
		want string
	}{
		{
			name: "ld-missing-operand",
			inst: func(b *ptx.Builder) ptx.Inst {
				return ptx.Inst{Op: ptx.OpLd, Space: ptx.SpaceGlobal, Type: ptx.U32,
					Dst: ptx.R(b.Reg(ptx.U32)), Guard: ptx.NoReg}
			},
			want: "ptx: verify: bad: inst 0 (ld.global.u32 %r0;): ld needs 1 source operands, has 0",
		},
		{
			name: "st-missing-operand",
			inst: func(b *ptx.Builder) ptx.Inst {
				return ptx.Inst{Op: ptx.OpSt, Space: ptx.SpaceGlobal, Type: ptx.U32,
					Dst: ptx.MemReg(b.Reg(ptx.U64), 0), Guard: ptx.NoReg}
			},
			want: "ptx: verify: bad: inst 0 (st.global.u32 [%rd0];): st needs 1 source operands, has 0",
		},
		{
			name: "ld-destination-not-a-register",
			inst: func(b *ptx.Builder) ptx.Inst {
				return ptx.Inst{Op: ptx.OpLd, Space: ptx.SpaceGlobal, Type: ptx.U32, Dst: ptx.Imm(0),
					Srcs: []ptx.Operand{ptx.MemReg(b.Reg(ptx.U64), 0)}, Guard: ptx.NoReg}
			},
			want: "ptx: verify: bad: inst 0 (ld.global.u32 0, [%rd0];): ld destination must be a register",
		},
		{
			name: "st-param",
			inst: func(b *ptx.Builder) ptx.Inst {
				return ptx.Inst{Op: ptx.OpSt, Space: ptx.SpaceParam, Type: ptx.U64,
					Dst: ptx.MemSym("out", 0), Srcs: []ptx.Operand{ptx.Imm(0)}, Guard: ptx.NoReg}
			},
			want: "ptx: verify: bad: inst 0 (st.param.u64 [out], 0;): cannot store to param space",
		},
		{
			name: "compute-without-register-destination",
			inst: func(b *ptx.Builder) ptx.Inst {
				return ptx.Inst{Op: ptx.OpAdd, Type: ptx.U32,
					Srcs: []ptx.Operand{ptx.Imm(1), ptx.Imm(2)}, Guard: ptx.NoReg}
			},
			want: "ptx: verify: bad: inst 0 (add.u32 1, 2;): add destination must be a register",
		},
	}
	for _, tc := range malformed {
		t.Run(tc.name, func(t *testing.T) {
			b := ptx.NewBuilder("bad")
			b.Param("out", ptx.U64)
			b.Emit(tc.inst(b))
			b.Exit()
			wantRefused(t, b.Kernel(), tc.want)
		})
	}

	// A selp whose predicate is an immediate (what the parser makes of
	// "selp.u32 %r0, 7, 9, 1;", register index 0) is refused at launch
	// whether or not any lane's guard would reach it.
	for _, executes := range []bool{true, false} {
		name := "selp-predicate-not-a-register/skipped"
		if executes {
			name = "selp-predicate-not-a-register/executed"
		}
		t.Run(name, func(t *testing.T) {
			k := guardedKernel(executes, func(b *ptx.Builder) {
				b.Emit(ptx.Inst{Op: ptx.OpSelp, Type: ptx.U32, Dst: ptx.R(b.Reg(ptx.U32)),
					Srcs: []ptx.Operand{ptx.Imm(7), ptx.Imm(9), ptx.Imm(1)}, Guard: ptx.NoReg})
			})
			wantRefused(t, k, "ptx: verify: unsup: inst 2 (@%p1 selp.u32 %r2, 7, 9, 1;): source 2 of selp must be a predicate register")
		})
	}

	unsupported := []struct {
		name string
		emit func(b *ptx.Builder)
		want string
	}{
		{
			name: "rem.f32",
			emit: func(b *ptx.Builder) {
				f := b.Reg(ptx.F32)
				b.Emit(ptx.Inst{Op: ptx.OpRem, Type: ptx.F32, Dst: ptx.R(f),
					Srcs: []ptx.Operand{ptx.FImm(1), ptx.FImm(2)}, Guard: ptx.NoReg})
			},
			want: "sem: f32 op rem unsupported",
		},
		{
			name: "and.f64",
			emit: func(b *ptx.Builder) {
				d := b.Reg(ptx.F64)
				b.And(ptx.F64, d, ptx.FImm(1), ptx.FImm(2))
			},
			want: "sem: f64 op and unsupported",
		},
		{
			name: "sin.u32",
			emit: func(b *ptx.Builder) {
				b.Sfu(ptx.OpSin, ptx.U32, b.Reg(ptx.U32), ptx.Imm(1))
			},
			want: "sem: integer op sin unsupported",
		},
		{
			// A comparison no PTX spelling names: the verifier only
			// requires one to be present, and sem rejects it.
			name: "setp-unknown-comparison",
			emit: func(b *ptx.Builder) {
				b.Setp(ptx.CmpOp(99), ptx.U32, b.Reg(ptx.Pred), ptx.Imm(1), ptx.Imm(2))
			},
			want: "sem: comparison cmp? unsupported",
		},
	}
	for _, tc := range unsupported {
		for _, executes := range []bool{true, false} {
			name := tc.name + "/skipped"
			if executes {
				name = tc.name + "/executed"
			}
			t.Run(name, func(t *testing.T) {
				k := guardedKernel(executes, tc.emit)
				if _, err := vec.ProgramFor(k); err != nil {
					t.Fatalf("ProgramFor: %v", err)
				}

				sim, err := gpusim.NewSimulator(gpusim.FermiConfig(), gpusim.NewMemory(), gpusim.Launch{
					Kernel: k, Grid: 1, Block: 32, Params: []uint64{0},
				})
				if err != nil {
					t.Fatalf("simulator: %v", err)
				}
				_, simErr := sim.Run()
				_, emuErr := emu.Run(emu.Launch{Kernel: k, Grid: 1, Block: 32, Params: []uint64{0}}, gpusim.NewMemory())
				if !executes {
					if simErr != nil || emuErr != nil {
						t.Fatalf("skipped op faulted: simulator %v, emulator %v", simErr, emuErr)
					}
					return
				}
				var sf *gpusim.Fault
				if !errors.As(simErr, &sf) || sf.Kind != gpusim.FaultExec || sf.PC != 2 || sf.Lane != 0 ||
					sf.Err == nil || sf.Err.Error() != tc.want {
					t.Errorf("simulator: %v\nwant an exec fault at pc 2 lane 0: %s", simErr, tc.want)
				}
				var ef *emu.Fault
				if !errors.As(emuErr, &ef) || ef.Kind != emu.FaultExec || ef.PC != 2 || ef.Lane != 0 ||
					ef.Err == nil || ef.Err.Error() != tc.want {
					t.Errorf("emulator: %v\nwant an exec fault at pc 2 lane 0: %s", emuErr, tc.want)
				}
			})
		}
	}
}

// guardedKernel builds a kernel whose every lane's guard is tid >= 0
// (executes) or tid < 0 (skipped); what emit adds sits at pc 2.
func guardedKernel(executes bool, emit func(b *ptx.Builder)) *ptx.Kernel {
	b := ptx.NewBuilder("unsup")
	b.Param("out", ptx.U64)
	tid, p := b.Reg(ptx.U32), b.Reg(ptx.Pred)
	b.MovSpec(tid, ptx.SpecTidX)
	cmp := ptx.CmpLt
	if executes {
		cmp = ptx.CmpGe
	}
	b.Setp(cmp, ptx.U32, p, ptx.R(tid), ptx.Imm(0))
	b.If(p, false)
	emit(b)
	b.Exit()
	return b.Kernel()
}

// wantRefused checks that vec.ProgramFor, the simulator and the emulator
// all refuse k with the verifier's message want.
func wantRefused(t *testing.T, k *ptx.Kernel, want string) {
	t.Helper()
	if _, err := vec.ProgramFor(k); err == nil || err.Error() != want {
		t.Errorf("ProgramFor: %v\nwant %s", err, want)
	}
	_, err := gpusim.NewSimulator(gpusim.FermiConfig(), gpusim.NewMemory(), gpusim.Launch{
		Kernel: k, Grid: 1, Block: 32, Params: []uint64{0},
	})
	if w := "gpusim: " + want; err == nil || err.Error() != w {
		t.Errorf("simulator: %v\nwant %s", err, w)
	}
	_, err = emu.Run(emu.Launch{Kernel: k, Grid: 1, Block: 32, Params: []uint64{0}}, gpusim.NewMemory())
	if w := "emu: " + want; err == nil || err.Error() != w {
		t.Errorf("emulator: %v\nwant %s", err, w)
	}
}
