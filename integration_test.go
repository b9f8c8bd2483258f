package crat_test

import (
	"strings"
	"testing"

	"crat/internal/core"
	"crat/internal/gpusim"
	"crat/internal/ptx"
	"crat/internal/regalloc"
	"crat/internal/workloads"
)

// fastProfile is a small register-pressured, cache-sensitive workload used
// for quick end-to-end pipeline checks.
func fastProfile() workloads.Profile {
	return workloads.Profile{
		Name: "integration", Kernel: "integ", Abbr: "ITG", Suite: "test",
		Block: 128, Grid: 6,
		Pressure: 10, ColdPressure: 24, Chain: 2,
		WSWords: 1024, Sweeps: 3, LoadsPerIter: 2,
		DefaultReg: 28,
	}
}

// profiledOptions returns CRAT pipeline options for app carrying its
// analysis and its profiled OptTLP, as the experiment harness supplies
// them.
func profiledOptions(t *testing.T, app core.App, arch gpusim.Config) core.Options {
	t.Helper()
	a, err := core.Analyze(app, arch)
	if err != nil {
		t.Fatal(err)
	}
	opt, _, err := core.ProfileOptTLPNCtx(t.Context(), app, arch, a, 1, core.SimulateKernelCtx)
	if err != nil {
		t.Fatal(err)
	}
	return core.Options{Arch: arch, Analysis: a, OptTLP: opt, SpillShared: true}
}

// TestEndToEndPipeline runs the complete CRAT flow on a fresh workload:
// analysis, profiling, pruning, allocation, spilling optimization, TPSC
// selection, and the four-mode comparison — asserting the paper's
// structural claims rather than absolute numbers.
func TestEndToEndPipeline(t *testing.T) {
	arch := gpusim.FermiConfig()
	app := fastProfile().App()

	opts := profiledOptions(t, app, arch)
	d, err := core.OptimizeCtx(t.Context(), app, opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(d.Candidates) == 0 {
		t.Fatal("no candidates survived pruning")
	}
	chosen := d.Chosen
	if chosen.TLP < 1 || chosen.TLP > d.Analysis.OptTLP {
		t.Errorf("chosen TLP %d outside [1, OptTLP=%d]", chosen.TLP, d.Analysis.OptTLP)
	}
	if chosen.UsedRegs() > chosen.Reg {
		t.Errorf("chosen kernel uses %d regs over its %d budget", chosen.UsedRegs(), chosen.Reg)
	}
	if err := chosen.Kernel().Validate(); err != nil {
		t.Fatalf("chosen kernel invalid: %v", err)
	}

	// The transformed kernel must round-trip through PTX text.
	text := ptx.Print(chosen.Kernel())
	if _, err := ptx.Parse(text); err != nil {
		t.Fatalf("chosen kernel does not reparse: %v", err)
	}

	// Mode ordering: CRAT must not lose to OptTLP, and OptTLP must not
	// lose to MaxTLP, beyond a small tolerance.
	cycles := map[core.Mode]int64{}
	for _, m := range []core.Mode{core.ModeMaxTLP, core.ModeOptTLP, core.ModeCRATLocal, core.ModeCRAT} {
		mopts, err := m.Options(app, opts)
		if err != nil {
			t.Fatalf("%v: %v", m, err)
		}
		d, err := core.OptimizeCtx(t.Context(), app, mopts)
		if err != nil {
			t.Fatalf("%v: %v", m, err)
		}
		st, err := core.SimulateKernelCtx(t.Context(), app, arch, d.Chosen.Kernel(), d.Chosen.UsedRegs(), m.LaunchTLP(d))
		if err != nil {
			t.Fatalf("%v: %v", m, err)
		}
		cycles[m] = st.Cycles
	}
	if float64(cycles[core.ModeOptTLP]) > 1.02*float64(cycles[core.ModeMaxTLP]) {
		t.Errorf("OptTLP (%d) slower than MaxTLP (%d)", cycles[core.ModeOptTLP], cycles[core.ModeMaxTLP])
	}
	if float64(cycles[core.ModeCRAT]) > 1.05*float64(cycles[core.ModeOptTLP]) {
		t.Errorf("CRAT (%d) slower than OptTLP (%d)", cycles[core.ModeCRAT], cycles[core.ModeOptTLP])
	}
	if float64(cycles[core.ModeCRAT]) > 1.05*float64(cycles[core.ModeCRATLocal]) {
		t.Errorf("CRAT (%d) slower than CRAT-local (%d)", cycles[core.ModeCRAT], cycles[core.ModeCRATLocal])
	}
}

// TestTransformedKernelsFunctionallyEquivalent verifies paper §5.2's
// consistency validation across the whole pruned design space of the fast
// workload: every candidate kernel computes the same outputs as the
// virtual-register original.
func TestTransformedKernelsFunctionallyEquivalent(t *testing.T) {
	arch := gpusim.FermiConfig()
	p := fastProfile()
	app := p.App()
	d, err := core.OptimizeCtx(t.Context(), app, profiledOptions(t, app, arch))
	if err != nil {
		t.Fatal(err)
	}

	run := func(k *ptx.Kernel, regs, tlp int) []uint32 {
		mem := gpusim.NewMemory()
		params := app.Setup(mem)
		sim, err := gpusim.NewSimulator(arch, mem, gpusim.Launch{
			Kernel: k, Grid: app.Grid, Block: app.Block,
			Params: params, TLPLimit: tlp, RegsPerThread: regs,
		})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := sim.Run(); err != nil {
			t.Fatal(err)
		}
		out := params[1]
		res := make([]uint32, app.Block*app.Grid)
		for i := range res {
			res[i] = mem.ReadUint32(out + uint64(4*i))
		}
		return res
	}

	ref := run(app.Kernel, 0, 1)
	for _, c := range d.Candidates {
		got := run(c.Kernel(), c.UsedRegs(), c.TLP)
		for i := range ref {
			if got[i] != ref[i] {
				t.Fatalf("candidate (reg=%d,TLP=%d) diverges at %d: %x vs %x",
					c.Reg, c.TLP, i, got[i], ref[i])
			}
		}
	}
}

// TestAllocatorPropertyOverBudgets is a property check over the whole
// feasible budget range of the integration kernel: allocations validate,
// respect the budget, and spill volume decreases monotonically as the
// budget grows.
func TestAllocatorPropertyOverBudgets(t *testing.T) {
	k := fastProfile().App().Kernel
	max, err := regalloc.MaxReg(k)
	if err != nil {
		t.Fatal(err)
	}
	prevSpills := 1 << 30
	for budget := 8; budget <= max; budget += 2 {
		res, err := regalloc.Allocate(k, regalloc.Options{Regs: budget})
		if err != nil {
			continue // below the feasibility floor
		}
		if res.UsedRegs > budget {
			t.Fatalf("budget %d: used %d", budget, res.UsedRegs)
		}
		if err := res.Kernel.Validate(); err != nil {
			t.Fatalf("budget %d: %v", budget, err)
		}
		// Spill volume trends down as the budget grows. The coloring
		// heuristic may pick a different victim set at adjacent budgets,
		// so allow a small non-monotonic blip but no real regression.
		spills := res.SpillLoads + res.SpillStores
		if float64(spills) > 1.1*float64(prevSpills)+2 {
			t.Errorf("budget %d: spill sites rose from %d to %d with more registers",
				budget, prevSpills, spills)
		}
		if spills < prevSpills {
			prevSpills = spills
		}
	}
	final, err := regalloc.Allocate(k, regalloc.Options{Regs: max})
	if err != nil {
		t.Fatal(err)
	}
	if len(final.Spills) != 0 {
		t.Errorf("allocation at MaxReg=%d still spills %d values", max, len(final.Spills))
	}
}

// TestCratcHeaderShape pins the compiler driver's output contract: the
// transformed PTX parses and the kernel keeps its name.
func TestCratcShapedOutput(t *testing.T) {
	app := fastProfile().App()
	arch := gpusim.FermiConfig()
	d, err := core.OptimizeCtx(t.Context(), app, profiledOptions(t, app, arch))
	if err != nil {
		t.Fatal(err)
	}
	out := ptx.Print(d.Chosen.Kernel())
	if !strings.Contains(out, ".entry integ") {
		t.Errorf("output missing kernel entry:\n%s", out[:120])
	}
	if d.Chosen.Overhead.Locals()+d.Chosen.Overhead.Shareds() > 0 &&
		!strings.Contains(out, "SpillStack") && !strings.Contains(out, "SpillShm") {
		t.Error("spilling kernel lacks spill storage declarations")
	}
}
