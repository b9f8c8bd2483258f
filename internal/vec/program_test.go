package vec_test

import (
	"runtime"
	"strings"
	"testing"
	"time"

	"crat/internal/emu"
	"crat/internal/gpusim"
	"crat/internal/ptx"
	"crat/internal/sem"
	"crat/internal/vec"
)

// storeTidKernel stores each thread's %tid.x at out[tid].
func storeTidKernel() *ptx.Kernel {
	b := ptx.NewBuilder("storetid")
	b.Param("out", ptx.U64)
	out := b.Reg(ptx.U64)
	b.LdParam(ptx.U64, out, "out")
	tid := b.Reg(ptx.U32)
	b.MovSpec(tid, ptx.SpecTidX)
	b.St(ptx.SpaceGlobal, ptx.U32, ptx.MemReg(b.AddrOf(out, tid, 4), 0), ptx.R(tid))
	b.Exit()
	return b.Kernel()
}

// badBranch is a branch to a label no kernel defines: it fails validation.
var badBranch = ptx.Inst{Op: ptx.OpBra, Target: "NOWHERE", Guard: ptx.NoReg}

// TestProgramDiesWithKernel: the per-kernel cache does not pin kernels.
// Once a kernel is unreachable its entry goes away; a Program that pointed
// back at its kernel would keep both alive forever and fail this test.
func TestProgramDiesWithKernel(t *testing.T) {
	func() {
		if _, err := vec.ProgramFor(storeTidKernel()); err != nil {
			t.Fatal(err)
		}
	}()
	if vec.Held() == 0 {
		t.Fatal("ProgramFor memoized nothing")
	}
	deadline := time.Now().Add(10 * time.Second)
	for vec.Held() > 0 {
		if time.Now().After(deadline) {
			t.Fatalf("%d entries still held 10s after their kernels became unreachable", vec.Held())
		}
		runtime.GC()
		time.Sleep(time.Millisecond)
	}
}

// TestValidatesOncePerKernelVersion pins when a kernel is validated: a
// kernel that fails validation fails every launch with the same error, a
// kernel launched many times is validated once, and a kernel whose
// instruction count changed is validated again.
func TestValidatesOncePerKernelVersion(t *testing.T) {
	builds := 0
	defer vec.CountBuilds(&builds)()

	b := ptx.NewBuilder("bad")
	b.Emit(badBranch)
	b.Exit()
	bad := b.Kernel()
	var first string
	for i := 0; i < 3; i++ {
		_, err := vec.NewMachine(bad, sem.NewMemory(), nil, 1, 32, 32)
		if err == nil || !strings.Contains(err.Error(), "NOWHERE") {
			t.Fatalf("launch %d of an invalid kernel: err = %v, want its validation error", i, err)
		}
		if i == 0 {
			first = err.Error()
		} else if err.Error() != first {
			t.Errorf("launch %d: err = %q, want the first launch's %q", i, err, first)
		}
	}
	if builds != 1 {
		t.Errorf("3 launches of an invalid kernel validated it %d times, want 1", builds)
	}

	builds = 0
	k := storeTidKernel()
	for i := 0; i < 5; i++ {
		if _, err := vec.NewMachine(k, sem.NewMemory(), []uint64{0}, 2, 32, 32); err != nil {
			t.Fatalf("launch %d: %v", i, err)
		}
	}
	if builds != 1 {
		t.Errorf("5 launches of one kernel validated it %d times, want 1", builds)
	}

	k.Append(badBranch)
	if _, err := vec.NewMachine(k, sem.NewMemory(), []uint64{0}, 2, 32, 32); err == nil || !strings.Contains(err.Error(), "NOWHERE") {
		t.Errorf("launch after appending a bad branch: err = %v, want its validation error", err)
	}
	if builds != 2 {
		t.Errorf("validations after the kernel grew = %d, want 2", builds)
	}
}

// TestEnginesShareOneBuild: a kernel simulated by gpusim and then run by
// emu is validated and lowered exactly once in all, and both engines
// compute the same stores from that one Program.
func TestEnginesShareOneBuild(t *testing.T) {
	builds := 0
	defer vec.CountBuilds(&builds)()

	k := storeTidKernel()
	simMem := gpusim.NewMemory()
	simOut := simMem.Alloc(4 * 64)
	sim, err := gpusim.NewSimulator(gpusim.FermiConfig(), simMem, gpusim.Launch{
		Kernel: k, Grid: 1, Block: 64, Params: []uint64{simOut},
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sim.Run(); err != nil {
		t.Fatal(err)
	}
	emuMem := sem.NewMemory()
	emuOut := emuMem.Alloc(4 * 64)
	if _, err := emu.Run(emu.Launch{Kernel: k, Grid: 1, Block: 64, Params: []uint64{emuOut}}, emuMem); err != nil {
		t.Fatal(err)
	}
	if builds != 1 {
		t.Errorf("gpusim then emu built the kernel's Program %d times, want 1", builds)
	}
	for tid := uint64(0); tid < 64; tid++ {
		if s, e := simMem.Read(simOut+4*tid, 4), emuMem.Read(emuOut+4*tid, 4); s != tid || e != tid {
			t.Fatalf("thread %d stored sim=%d emu=%d, want %d", tid, s, e, tid)
		}
	}
}

// TestLaunchContractErrors pins the launch checks both engines share, and
// their messages byte for byte under each engine's prefix.
func TestLaunchContractErrors(t *testing.T) {
	k := storeTidKernel()
	b := ptx.NewBuilder("bad")
	b.Emit(badBranch)
	bad := b.Kernel()
	cases := []struct {
		name        string
		k           *ptx.Kernel
		params      []uint64
		grid, block int
		want        string
	}{
		{"nil kernel", nil, nil, 1, 32, "nil kernel"},
		{"invalid kernel", bad, nil, 1, 32, bad.Validate().Error()},
		{"param count", k, nil, 1, 32, "0 param values for 1 params"},
		{"zero grid", k, []uint64{0}, 0, 32, "grid=0 block=32 must be positive"},
		{"negative block", k, []uint64{0}, 1, -1, "grid=1 block=-1 must be positive"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := vec.NewMachine(tc.k, sem.NewMemory(), tc.params, tc.grid, tc.block, 32)
			if err == nil || err.Error() != tc.want {
				t.Errorf("vec: err = %v, want %q", err, tc.want)
			}
			_, err = gpusim.NewSimulator(gpusim.FermiConfig(), gpusim.NewMemory(), gpusim.Launch{
				Kernel: tc.k, Grid: tc.grid, Block: tc.block, Params: tc.params,
			})
			if err == nil || err.Error() != "gpusim: "+tc.want {
				t.Errorf("gpusim: err = %v, want %q", err, "gpusim: "+tc.want)
			}
			_, err = emu.Run(emu.Launch{Kernel: tc.k, Grid: tc.grid, Block: tc.block, Params: tc.params}, sem.NewMemory())
			if err == nil || err.Error() != "emu: "+tc.want {
				t.Errorf("emu: err = %v, want %q", err, "emu: "+tc.want)
			}
		})
	}
}
