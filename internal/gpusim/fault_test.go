package gpusim

import (
	"errors"
	"strings"
	"testing"

	"crat/internal/ptx"
	"crat/internal/vec"
)

// runFault launches the kernel and requires Run to fail with a *Fault of
// the wanted kind.
func runFault(t *testing.T, cfg Config, launch Launch, want FaultKind) *Fault {
	t.Helper()
	sim, err := NewSimulator(cfg, NewMemory(), launch)
	if err != nil {
		t.Fatalf("NewSimulator: %v", err)
	}
	_, err = sim.Run()
	if err == nil {
		t.Fatal("Run succeeded, want a fault")
	}
	var f *Fault
	if !errors.As(err, &f) {
		t.Fatalf("Run error is %T, want *Fault: %v", err, err)
	}
	if f.Kind != want {
		t.Fatalf("fault kind = %s, want %s: %v", f.Kind, want, err)
	}
	return f
}

// TestFaultExec: an op/type combination the execution engine rejects
// (sin on an integer register) must surface as a structured exec fault,
// not a panic.
func TestFaultExec(t *testing.T) {
	b := ptx.NewBuilder("badexec")
	b.Param("out", ptx.U64)
	r := b.Reg(ptx.U32)
	b.Sfu(ptx.OpSin, ptx.U32, r, ptx.Imm(1))
	b.Exit()
	k := b.Kernel()
	if err := ptx.Verify(k, "test"); err != nil {
		t.Fatalf("kernel must pass static verification to reach execution: %v", err)
	}
	f := runFault(t, FermiConfig(), Launch{
		Kernel: k, Grid: 1, Block: 32, Params: []uint64{0},
	}, FaultExec)
	if f.Kernel != "badexec" || f.PC != 0 || f.Warp < 0 || f.Err == nil {
		t.Errorf("fault metadata incomplete: %+v", f)
	}
	if !strings.Contains(f.Error(), "sin") {
		t.Errorf("fault %q does not name the instruction", f.Error())
	}
}

// TestFaultNullGlobal: a global access through a zero/near-zero pointer
// lands in the reserved null page.
func TestFaultNullGlobal(t *testing.T) {
	b := ptx.NewBuilder("nullptr")
	b.Param("out", ptx.U64)
	addr := b.Reg(ptx.U64)
	v := b.Reg(ptx.U32)
	b.Mov(ptx.U64, addr, ptx.Imm(8)) // inside the null page
	b.Mov(ptx.U32, v, ptx.Imm(42))
	b.St(ptx.SpaceGlobal, ptx.U32, ptx.MemReg(addr, 0), ptx.R(v))
	b.Exit()
	f := runFault(t, FermiConfig(), Launch{
		Kernel: b.Kernel(), Grid: 1, Block: 32, Params: []uint64{0},
	}, FaultNullGlobal)
	if f.Addr >= vec.NullPageBytes {
		t.Errorf("fault addr %#x not inside the null page", f.Addr)
	}
	if f.Cycle <= 0 || f.PC < 0 {
		t.Errorf("fault metadata incomplete: %+v", f)
	}
}

// TestFaultBarrierDeadlock (whitebox): force every live warp into the
// at-barrier state with no arrivals pending; the idle watchdog must
// diagnose the deadlock within its 64-cycle probe window instead of
// spinning to MaxCycles.
func TestFaultBarrierDeadlock(t *testing.T) {
	b := ptx.NewBuilder("deadlock")
	b.Param("out", ptx.U64)
	b.Bar()
	b.Exit()
	cfg := FermiConfig()
	sim, err := NewSimulator(cfg, NewMemory(), Launch{
		Kernel: b.Kernel(), Grid: 1, Block: 64, Params: []uint64{0},
	})
	if err != nil {
		t.Fatal(err)
	}
	// Make every warp resident, then corrupt the barrier accounting the way
	// a broken transformation would: all warps waiting, none counted.
	for sim.nextBlock < sim.launch.Grid && len(sim.blocks) < sim.maxConc {
		sim.launchBlock()
	}
	for _, w := range sim.warps {
		w.barrier = true
		w.block.arrived = 0
	}
	_, err = sim.Run()
	var f *Fault
	if !errors.As(err, &f) || f.Kind != FaultBarrierDeadlock {
		t.Fatalf("got %v, want a barrier-deadlock fault", err)
	}
	if sim.now > 200 {
		t.Errorf("deadlock detected only at cycle %d; the probe should fire within ~64 idle cycles", sim.now)
	}
	if len(f.Warps) == 0 {
		t.Error("deadlock fault carries no warp states")
	}
	for _, ws := range f.Warps {
		if !ws.AtBarrier {
			t.Errorf("warp %d snapshot not at-barrier: %+v", ws.Warp, ws)
		}
	}
	if !strings.Contains(f.Error(), "at-barrier") {
		t.Errorf("fault message lacks per-warp barrier status:\n%s", f.Error())
	}
}

// TestFaultWatchdogStall (whitebox): corrupt the scoreboard so no warp can
// ever issue; the stall watchdog must abort after StallWindow idle cycles.
func TestFaultWatchdogStall(t *testing.T) {
	b := ptx.NewBuilder("wedged")
	b.Param("out", ptx.U64)
	po := b.Reg(ptx.U64)
	b.LdParam(ptx.U64, po, "out")
	b.Exit()
	cfg := FermiConfig()
	cfg.StallWindow = 256
	sim, err := NewSimulator(cfg, NewMemory(), Launch{
		Kernel: b.Kernel(), Grid: 1, Block: 64, Params: []uint64{0},
	})
	if err != nil {
		t.Fatal(err)
	}
	for sim.nextBlock < sim.launch.Grid && len(sim.blocks) < sim.maxConc {
		sim.launchBlock()
	}
	for _, w := range sim.warps {
		for r := range w.regReady {
			w.regReady[r] = (1 << 60) << 1 // never ready, not memory-pending (packed)
		}
	}
	_, err = sim.Run()
	var f *Fault
	if !errors.As(err, &f) || f.Kind != FaultWatchdogStall {
		t.Fatalf("got %v, want a watchdog-stall fault", err)
	}
	if sim.now > 10*256 {
		t.Errorf("stall detected only at cycle %d with StallWindow=256", sim.now)
	}
	if len(f.Warps) == 0 {
		t.Error("stall fault carries no warp states")
	}
	msg := f.Error()
	for _, want := range []string{"pc=", "stall="} {
		if !strings.Contains(msg, want) {
			t.Errorf("stall fault message lacks %q:\n%s", want, msg)
		}
	}
}

// TestFaultLivelock: an infinite loop that keeps issuing must trip the
// cycle cap and report per-warp state (pc, stall reason).
func TestFaultLivelock(t *testing.T) {
	b := ptx.NewBuilder("spin")
	b.Param("out", ptx.U64)
	r := b.Reg(ptx.U32)
	b.Label("LOOP").Add(ptx.U32, r, ptx.R(r), ptx.Imm(1))
	b.Bra("LOOP")
	cfg := FermiConfig()
	cfg.MaxCycles = 10_000
	f := runFault(t, cfg, Launch{
		Kernel: b.Kernel(), Grid: 1, Block: 32, Params: []uint64{0},
	}, FaultLivelock)
	if len(f.Warps) == 0 {
		t.Fatal("livelock fault carries no warp states")
	}
	msg := f.Error()
	for _, want := range []string{"exceeded 10000 cycles", "warp states:", "pc=", "stall="} {
		if !strings.Contains(msg, want) {
			t.Errorf("livelock message lacks %q:\n%s", want, msg)
		}
	}
}

// TestFaultFirstWins: once a fault is recorded, later setFault calls must
// not overwrite it.
func TestFaultFirstWins(t *testing.T) {
	b := ptx.NewBuilder("fw")
	b.Exit()
	sim, err := NewSimulator(FermiConfig(), NewMemory(), Launch{
		Kernel: b.Kernel(), Grid: 1, Block: 32,
	})
	if err != nil {
		t.Fatal(err)
	}
	sim.setFault(&Fault{Kind: FaultExec, PC: -1, Warp: 1, Block: -1, Lane: -1})
	sim.setFault(&Fault{Kind: FaultLivelock, PC: -1, Warp: 2, Block: -1, Lane: -1})
	if sim.fault.Kind != FaultExec || sim.fault.Warp != 1 {
		t.Errorf("first fault overwritten: %+v", sim.fault)
	}
}

// TestFaultKindStrings pins the taxonomy names used in logs and docs.
func TestFaultKindStrings(t *testing.T) {
	want := map[FaultKind]string{
		FaultExec:            "exec-fault",
		FaultMemOOB:          "mem-out-of-bounds",
		FaultNullGlobal:      "null-global-access",
		FaultBarrierDeadlock: "barrier-deadlock",
		FaultWatchdogStall:   "watchdog-stall",
		FaultLivelock:        "livelock",
		FaultTimeout:         "deadline-timeout",
		FaultCanceled:        "canceled",
	}
	for k, s := range want {
		if k.String() != s {
			t.Errorf("FaultKind(%d).String() = %q, want %q", k, k.String(), s)
		}
	}
}
