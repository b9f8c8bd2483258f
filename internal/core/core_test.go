package core

import (
	"context"
	"testing"

	"crat/internal/gpusim"
	"crat/internal/ptx"
)

// makeTestApp builds a small cache-sensitive, register-pressured app:
// `hot` accumulators updated per inner iteration, `cold` updated per sweep,
// a wsWords-word per-block working set swept `sweeps` times.
func makeTestApp(name string, hot, cold, wsWords, sweeps, block, grid int) App {
	b := ptx.NewBuilder(name)
	b.Param("data", ptx.U64).Param("out", ptx.U64)
	pd, po := b.Reg(ptx.U64), b.Reg(ptx.U64)
	b.LdParam(ptx.U64, pd, "data").LdParam(ptx.U64, po, "out")
	tid, ctaid := b.Reg(ptx.U32), b.Reg(ptx.U32)
	b.MovSpec(tid, ptx.SpecTidX)
	b.MovSpec(ctaid, ptx.SpecCtaIdX)
	hots := b.Regs(ptx.F32, hot)
	colds := b.Regs(ptx.F32, cold)
	for i, r := range hots {
		b.Mov(ptx.F32, r, ptx.FImm(float64(i)))
	}
	for i, r := range colds {
		b.Mov(ptx.F32, r, ptx.FImm(float64(i)))
	}
	it, k := b.Reg(ptx.U32), b.Reg(ptx.U32)
	p1, p2 := b.Reg(ptx.Pred), b.Reg(ptx.Pred)
	b.Mov(ptx.U32, it, ptx.Imm(0))
	b.Label("OUTER").Setp(ptx.CmpGe, ptx.U32, p1, ptx.R(it), ptx.Imm(int64(sweeps)))
	b.BraIf(p1, false, "END")
	b.Mov(ptx.U32, k, ptx.Imm(0))
	b.Label("INNER").Setp(ptx.CmpGe, ptx.U32, p2, ptx.R(k), ptx.Imm(int64(wsWords/32)))
	b.BraIf(p2, false, "AFTER")
	off := b.Reg(ptx.U32)
	b.Mad(ptx.U32, off, ptx.R(k), ptx.Imm(32), ptx.R(tid))
	b.And(ptx.U32, off, ptx.R(off), ptx.Imm(int64(wsWords-1)))
	idx := b.Reg(ptx.U32)
	b.Mad(ptx.U32, idx, ptx.R(ctaid), ptx.Imm(int64(wsWords)), ptx.R(off))
	addr := b.AddrOf(pd, idx, 4)
	v := b.Reg(ptx.F32)
	b.Ld(ptx.SpaceGlobal, ptx.F32, v, ptx.MemReg(addr, 0))
	for _, r := range hots {
		b.Mad(ptx.F32, r, ptx.R(r), ptx.FImm(1.0), ptx.R(v))
	}
	b.Add(ptx.U32, k, ptx.R(k), ptx.Imm(1))
	b.Bra("INNER")
	b.Label("AFTER")
	for _, r := range colds {
		b.Add(ptx.F32, r, ptx.R(r), ptx.FImm(0.5))
	}
	b.Add(ptx.U32, it, ptx.R(it), ptx.Imm(1))
	b.Bra("OUTER")
	b.Label("END")
	sum := b.Reg(ptx.F32)
	b.Mov(ptx.F32, sum, ptx.FImm(0))
	for _, r := range hots {
		b.Add(ptx.F32, sum, ptx.R(sum), ptx.R(r))
	}
	for _, r := range colds {
		b.Add(ptx.F32, sum, ptx.R(sum), ptx.R(r))
	}
	gi := b.GlobalIndex()
	oa := b.AddrOf(po, gi, 4)
	b.St(ptx.SpaceGlobal, ptx.F32, ptx.MemReg(oa, 0), ptx.R(sum))
	b.Exit()

	return App{
		Name:   name,
		Kernel: b.Kernel(),
		Grid:   grid,
		Block:  block,
		Setup: func(mem *gpusim.Memory) []uint64 {
			words := wsWords * (grid + 1)
			data := mem.Alloc(int64(4 * words))
			for i := 0; i < words; i++ {
				mem.WriteFloat32(data+uint64(4*i), float32(i%13))
			}
			out := mem.Alloc(int64(4 * block * grid))
			return []uint64{data, out}
		},
	}
}

func testApp() App { return makeTestApp("t", 10, 24, 1024, 3, 128, 6) }

func TestAnalyze(t *testing.T) {
	arch := gpusim.FermiConfig()
	app := testApp()
	a, err := Analyze(app, arch)
	if err != nil {
		t.Fatal(err)
	}
	if a.MinReg != 21 {
		t.Errorf("MinReg = %d, want 21", a.MinReg)
	}
	// 34 accumulators plus overhead.
	if a.MaxReg < 34 || a.MaxReg > 60 {
		t.Errorf("MaxReg = %d, want ~34+overhead", a.MaxReg)
	}
	if a.DefaultReg != a.MaxReg {
		t.Errorf("DefaultReg = %d, want MaxReg %d (no explicit default, under cap)", a.DefaultReg, a.MaxReg)
	}
	if a.MaxTLP < 1 || a.MaxTLP > 8 {
		t.Errorf("MaxTLP = %d out of range", a.MaxTLP)
	}
	if a.RegFloor != a.MinReg {
		t.Errorf("RegFloor = %d, want MinReg %d (feasible here)", a.RegFloor, a.MinReg)
	}
	if floor := FeasibleFloor(app.Kernel, a.MaxReg); floor >= a.MaxReg || floor < 4 {
		t.Errorf("FeasibleFloor = %d implausible vs MaxReg %d", floor, a.MaxReg)
	}
	if len(a.Segments) < 3 {
		t.Errorf("expected several segments, got %d", len(a.Segments))
	}
}

func TestSegments(t *testing.T) {
	app := testApp()
	segs, err := Segments(app.Kernel)
	if err != nil {
		t.Fatal(err)
	}
	// Alternating kinds, with at least one memory segment, and loop-weighted
	// latencies (inner-loop memory segment weight = 100 per access).
	var memSeen bool
	for i := 1; i < len(segs); i++ {
		if segs[i].Kind == segs[i-1].Kind {
			t.Fatalf("segments %d and %d have the same kind", i-1, i)
		}
	}
	maxMemWeight := 0.0
	for _, s := range segs {
		if s.Kind == SegMemory {
			memSeen = true
			if s.Latency > maxMemWeight {
				maxMemWeight = s.Latency
			}
		}
		if s.Insts <= 0 || s.Latency <= 0 {
			t.Errorf("degenerate segment %+v", s)
		}
	}
	if !memSeen {
		t.Error("no memory segment found")
	}
	// The inner-loop load sits at depth 2: weight 10^2 per access.
	if maxMemWeight < 100 {
		t.Errorf("max memory segment weight = %v, want >= 100 (loop weighting)", maxMemWeight)
	}
}

func TestStaircase(t *testing.T) {
	arch := gpusim.FermiConfig()
	a, err := Analyze(testApp(), arch)
	if err != nil {
		t.Fatal(err)
	}
	stairs := a.Staircase(arch)
	if len(stairs) == 0 {
		t.Fatal("empty staircase")
	}
	prevReg := 1 << 30
	for tlp := 1; tlp <= len(stairs); tlp++ {
		reg, ok := stairs[tlp]
		if !ok {
			t.Fatalf("staircase missing TLP %d", tlp)
		}
		// Registers are non-increasing as TLP grows.
		if reg > prevReg {
			t.Errorf("stair %d has reg %d > previous %d", tlp, reg, prevReg)
		}
		prevReg = reg
		// The point must be realizable: occupancy at reg covers tlp.
		if got := a.TLPAt(arch, reg); got < tlp {
			t.Errorf("stair (%d,%d) not realizable: occupancy %d", reg, tlp, got)
		}
		// Rightmost: one more register must not still reach this TLP
		// (unless capped by MaxReg or the ISA limit).
		if reg+1 <= a.MaxReg && reg+1 <= arch.MaxRegPerThread {
			if got := a.TLPAt(arch, reg+1); got >= tlp {
				t.Errorf("stair (%d,%d) not rightmost: reg+1 still reaches TLP %d", reg, tlp, got)
			}
		}
	}
}

func TestTLPGain(t *testing.T) {
	prev := 1.0
	for tlp := 1; tlp <= 8; tlp++ {
		g := TLPGain(tlp, 192, 1536)
		if g <= 0 || g >= 1 {
			t.Errorf("TLPGain(%d) = %v out of (0,1)", tlp, g)
		}
		if g >= prev {
			t.Errorf("TLPGain not decreasing at %d: %v >= %v", tlp, g, prev)
		}
		prev = g
	}
	// Paper formula check: TLP*BlockSize = MaxThread -> gain = 0.5.
	if g := TLPGain(8, 192, 1536); g != 0.5 {
		t.Errorf("TLPGain(8,192,1536) = %v, want 0.5", g)
	}
}

func TestSpillCostAndTPSC(t *testing.T) {
	costs := gpusim.Costs{Local: 30, Shared: 10}
	o := ptx.SpillOverhead{LocalLoads: 2, LocalStores: 1, SharedLoads: 4, SharedStores: 4, AddrInsts: 3}
	want := 3.0*30 + 8*10 + 3
	if got := SpillCost(o, costs); got != want {
		t.Errorf("SpillCost = %v, want %v", got, want)
	}
	if got := TPSC(8, 192, 1536, o, costs); got != 0.5*want {
		t.Errorf("TPSC = %v, want %v", got, 0.5*want)
	}
	if got := TPSC(4, 192, 1536, ptx.SpillOverhead{}, costs); got != 0 {
		t.Errorf("zero-overhead TPSC = %v, want 0", got)
	}
}

func TestEstimateOptTLPContention(t *testing.T) {
	arch := gpusim.FermiConfig()
	a, err := Analyze(testApp(), arch)
	if err != nil {
		t.Fatal(err)
	}
	a.MaxTLP = 8
	// Small footprint + high hit ratio: the estimator should keep many
	// blocks involved.
	friendly := EstimateOptTLP(a, arch, StaticModelInput{HitRatioAtOne: 0.98, BlockFootprint: 1024})
	// Huge footprint + poor hit ratio: fewer blocks.
	hostile := EstimateOptTLP(a, arch, StaticModelInput{HitRatioAtOne: 0.5, BlockFootprint: 32 * 1024})
	if friendly < 1 || friendly > 8 || hostile < 1 || hostile > 8 {
		t.Fatalf("estimates out of range: %d, %d", friendly, hostile)
	}
	if hostile > friendly {
		t.Errorf("hostile estimate %d > friendly %d", hostile, friendly)
	}
}

func TestProfileOptTLPWithinRange(t *testing.T) {
	arch := gpusim.FermiConfig()
	app := testApp()
	a, err := Analyze(app, arch)
	if err != nil {
		t.Fatal(err)
	}
	opt, runs, err := ProfileOptTLPNCtx(t.Context(), app, arch, a, 1, SimulateKernelCtx)
	if err != nil {
		t.Fatal(err)
	}
	if opt < 1 || opt > a.MaxTLP {
		t.Errorf("OptTLP = %d out of [1,%d]", opt, a.MaxTLP)
	}
	if len(runs) != a.MaxTLP {
		t.Errorf("profiling ran %d times, want %d", len(runs), a.MaxTLP)
	}
	best := runs[opt-1].Cycles
	for i, st := range runs {
		if st.Cycles < best {
			t.Errorf("run %d has %d cycles < chosen %d", i+1, st.Cycles, best)
		}
	}
}

// profiledOptions returns pipeline options for app on arch carrying its
// analysis and its profiled OptTLP, as the harness supplies them.
func profiledOptions(t *testing.T, app App, arch gpusim.Config) Options {
	t.Helper()
	a, err := Analyze(app, arch)
	if err != nil {
		t.Fatal(err)
	}
	opt, _, err := ProfileOptTLPNCtx(t.Context(), app, arch, a, 1, SimulateKernelCtx)
	if err != nil {
		t.Fatal(err)
	}
	return Options{Arch: arch, Analysis: a, OptTLP: opt}
}

func TestOptimizeEndToEnd(t *testing.T) {
	arch := gpusim.FermiConfig()
	app := makeTestApp("big", 12, 40, 2048, 3, 128, 6) // MaxReg beyond some stairs
	opts := profiledOptions(t, app, arch)
	opts.SpillShared = true
	d, err := OptimizeCtx(t.Context(), app, opts)
	if err != nil {
		t.Fatal(err)
	}
	if d.Analysis.OptTLP != opts.OptTLP {
		t.Errorf("pipeline pruned at OptTLP %d, want the supplied %d", d.Analysis.OptTLP, opts.OptTLP)
	}
	if len(d.Candidates) == 0 {
		t.Fatal("no candidates")
	}
	regsSeen := map[int]bool{}
	for _, c := range d.Candidates {
		if c.TLP > d.Analysis.OptTLP {
			t.Errorf("candidate (%d,%d) above OptTLP %d survived pruning", c.Reg, c.TLP, d.Analysis.OptTLP)
		}
		if regsSeen[c.Reg] {
			t.Errorf("duplicate reg %d among candidates (dominance pruning failed)", c.Reg)
		}
		regsSeen[c.Reg] = true
		if c.UsedRegs() > c.Reg {
			t.Errorf("candidate used %d regs over budget %d", c.UsedRegs(), c.Reg)
		}
		if err := c.Kernel().Validate(); err != nil {
			t.Errorf("candidate (%d,%d) kernel invalid: %v", c.Reg, c.TLP, err)
		}
	}
	// Chosen must have minimal TPSC.
	for _, c := range d.Candidates {
		if c.TPSC < d.Chosen.TPSC {
			t.Errorf("chosen TPSC %v not minimal (candidate %v)", d.Chosen.TPSC, c.TPSC)
		}
	}
}

// TestOptimizeDefaultsOptTLPToMaxTLP: OptTLP is an input; 0 means MaxTLP
// and larger values clamp to it.
func TestOptimizeDefaultsOptTLPToMaxTLP(t *testing.T) {
	arch := gpusim.FermiConfig()
	app := testApp()
	costs := gpusim.Costs{Local: 40, Shared: 4}
	for _, opt := range []int{0, 1000} {
		d, err := OptimizeCtx(t.Context(), app, Options{Arch: arch, OptTLP: opt, Costs: costs, SpillShared: true})
		if err != nil {
			t.Fatal(err)
		}
		if d.Analysis.OptTLP != d.Analysis.MaxTLP {
			t.Errorf("OptTLP %d resolved to %d, want MaxTLP %d", opt, d.Analysis.OptTLP, d.Analysis.MaxTLP)
		}
	}
}

// TestOptimizeStaticCheaper: the static estimator (CRAT-static, paper
// §7.6) needs one TLP=1 simulation where profiling needs MaxTLP, and its
// estimate drives the pipeline like a profiled one.
func TestOptimizeStaticCheaper(t *testing.T) {
	arch := gpusim.FermiConfig()
	app := testApp()
	a, err := Analyze(app, arch)
	if err != nil {
		t.Fatal(err)
	}
	_, runs, err := ProfileOptTLPNCtx(t.Context(), app, arch, a, 1, SimulateKernelCtx)
	if err != nil {
		t.Fatal(err)
	}
	if len(runs) != a.MaxTLP || a.MaxTLP <= 1 {
		t.Fatalf("profiling ran %d simulations for MaxTLP %d; want MaxTLP > 1 of them", len(runs), a.MaxTLP)
	}
	in, err := MeasureStaticInputs(t.Context(), app, arch, a, SimulateKernelCtx)
	if err != nil {
		t.Fatal(err)
	}
	est := EstimateOptTLP(a, arch, in)
	d, err := OptimizeCtx(t.Context(), app, Options{Arch: arch, Analysis: a, OptTLP: est, SpillShared: true})
	if err != nil {
		t.Fatal(err)
	}
	if d.Analysis.OptTLP != est || est < 1 || est > d.Analysis.MaxTLP {
		t.Errorf("static OptTLP = %d (pipeline used %d) out of [1,%d]", est, d.Analysis.OptTLP, d.Analysis.MaxTLP)
	}
}

func TestOracleMatchesOrBeatsTPSC(t *testing.T) {
	arch := gpusim.FermiConfig()
	app := makeTestApp("orc", 12, 30, 1024, 3, 128, 6)
	opts := profiledOptions(t, app, arch)
	opts.SpillShared = true
	tpsc, err := OptimizeCtx(t.Context(), app, opts)
	if err != nil {
		t.Fatal(err)
	}
	opts.Oracle = true
	oracle, err := OptimizeCtx(t.Context(), app, opts)
	if err != nil {
		t.Fatal(err)
	}
	// The oracle's chosen point has the fewest cycles among candidates.
	for _, c := range oracle.Candidates {
		if c.Cycles < oracle.Chosen.Cycles {
			t.Errorf("oracle chose %d cycles but candidate has %d", oracle.Chosen.Cycles, c.Cycles)
		}
	}
	// TPSC's choice, simulated, should be within 2x of the oracle (it is a
	// model, not an oracle — but it must not be absurd).
	st, err := SimulateKernelCtx(t.Context(), app, arch, tpsc.Chosen.Kernel(), tpsc.Chosen.UsedRegs(), tpsc.Chosen.TLP)
	if err != nil {
		t.Fatal(err)
	}
	if st.Cycles > 2*oracle.Chosen.Cycles {
		t.Errorf("TPSC choice %d cycles vs oracle %d: model far off", st.Cycles, oracle.Chosen.Cycles)
	}
}

func TestRunModes(t *testing.T) {
	arch := gpusim.FermiConfig()
	app := makeTestApp("modes", 12, 30, 2048, 3, 128, 6)
	opts := profiledOptions(t, app, arch)
	var results [4]gpusim.Stats
	var decisions [4]*Decision
	for i, m := range []Mode{ModeMaxTLP, ModeOptTLP, ModeCRATLocal, ModeCRAT} {
		mopts, err := m.Options(app, opts)
		if err != nil {
			t.Fatalf("%v: %v", m, err)
		}
		d, err := OptimizeCtx(t.Context(), app, mopts)
		if err != nil {
			t.Fatalf("%v: %v", m, err)
		}
		st, err := SimulateKernelCtx(t.Context(), app, arch, d.Chosen.Kernel(), d.Chosen.UsedRegs(), m.LaunchTLP(d))
		if err != nil {
			t.Fatalf("%v: %v", m, err)
		}
		results[i] = st
		decisions[i] = d
		if st.Cycles <= 0 {
			t.Errorf("%v: zero cycles", m)
		}
	}
	// OptTLP throttles at most as many blocks as MaxTLP.
	if decisions[1].Chosen.TLP > decisions[0].Chosen.TLP {
		t.Errorf("OptTLP TLP %d > MaxTLP TLP %d", decisions[1].Chosen.TLP, decisions[0].Chosen.TLP)
	}
	// CRAT must not use fewer registers than the throttled baseline wastes:
	// its register utilization is at least OptTLP's.
	// CRAT typically raises register utilization vs the throttled baseline
	// (paper Figure 15); tolerate a small shortfall since the TPSC winner
	// is chosen on performance, not utilization.
	utilOpt := RegisterUtilization(arch, decisions[1].Chosen.TLP, app.Block, decisions[1].Chosen.Reg)
	utilCrat := RegisterUtilization(arch, decisions[3].Chosen.TLP, app.Block, decisions[3].Chosen.UsedRegs())
	if utilCrat < 0.85*utilOpt {
		t.Errorf("CRAT register utilization %.3f far below OptTLP's %.3f", utilCrat, utilOpt)
	}
	// CRAT should not be slower than OptTLP by more than a small margin
	// (the paper's headline is that it is strictly faster on sensitive
	// apps).
	if float64(results[3].Cycles) > 1.1*float64(results[1].Cycles) {
		t.Errorf("CRAT %d cycles much slower than OptTLP %d", results[3].Cycles, results[1].Cycles)
	}
}

func TestRegisterUtilization(t *testing.T) {
	arch := gpusim.FermiConfig()
	if got := RegisterUtilization(arch, 8, 128, 32); got != 1.0 {
		t.Errorf("full utilization = %v, want 1.0", got)
	}
	if got := RegisterUtilization(arch, 4, 128, 32); got != 0.5 {
		t.Errorf("half utilization = %v, want 0.5", got)
	}
}

func TestMeasureStaticInputs(t *testing.T) {
	arch := gpusim.FermiConfig()
	app := testApp()
	a, err := Analyze(app, arch)
	if err != nil {
		t.Fatal(err)
	}
	in, err := MeasureStaticInputs(context.Background(), app, arch, a, SimulateKernelCtx)
	if err != nil {
		t.Fatal(err)
	}
	if in.HitRatioAtOne <= 0 || in.HitRatioAtOne > 1 {
		t.Errorf("hit ratio %v out of (0,1]", in.HitRatioAtOne)
	}
	// 1024 words = 4KB per block footprint, give or take spill lines.
	if in.BlockFootprint < 2048 || in.BlockFootprint > 16*1024 {
		t.Errorf("footprint %v far from 4KB", in.BlockFootprint)
	}
}

func TestModeStrings(t *testing.T) {
	want := map[Mode]string{
		ModeMaxTLP:    "MaxTLP",
		ModeOptTLP:    "OptTLP",
		ModeCRATLocal: "CRAT-local",
		ModeCRAT:      "CRAT",
	}
	for m, w := range want {
		if m.String() != w {
			t.Errorf("Mode(%d).String() = %q, want %q", m, m.String(), w)
		}
	}
}

func TestCandidateAccessors(t *testing.T) {
	arch := gpusim.FermiConfig()
	app := makeTestApp("acc", 10, 20, 1024, 2, 128, 4)
	opts := profiledOptions(t, app, arch)
	opts.SpillShared = true
	d, err := OptimizeCtx(t.Context(), app, opts)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range d.Candidates {
		if c.Kernel() == nil {
			t.Fatal("candidate without kernel")
		}
		if c.Spill != nil && c.Kernel() != c.Spill.Alloc.Kernel {
			t.Error("Kernel() should return the spill-optimized kernel when present")
		}
		if c.Spill == nil && c.Kernel() != c.Alloc.Kernel {
			t.Error("Kernel() should return the plain allocation when no spill result")
		}
		if c.UsedRegs() <= 0 {
			t.Errorf("UsedRegs = %d", c.UsedRegs())
		}
	}
}

func TestOptimizeRejectsIncompleteApp(t *testing.T) {
	arch := gpusim.FermiConfig()
	if _, err := Analyze(App{Name: "empty"}, arch); err == nil {
		t.Error("Analyze accepted an app without kernel/block")
	}
}

func TestInvolvedBlocksBounds(t *testing.T) {
	arch := gpusim.FermiConfig()
	a, err := Analyze(testApp(), arch)
	if err != nil {
		t.Fatal(err)
	}
	a.MaxTLP = 6
	got := InvolvedBlocks(a, arch, StaticModelInput{HitRatioAtOne: 0.9, BlockFootprint: 4096})
	if got < 1 || got > 6 {
		t.Errorf("InvolvedBlocks = %d out of [1,6]", got)
	}
	a.MaxTLP = 1
	if got := InvolvedBlocks(a, arch, StaticModelInput{}); got != 1 {
		t.Errorf("MaxTLP=1 should involve exactly 1 block, got %d", got)
	}
}

func TestRunModeUnknown(t *testing.T) {
	arch := gpusim.FermiConfig()
	if _, err := Mode(99).Options(testApp(), Options{Arch: arch}); err == nil {
		t.Error("Mode.Options accepted an unknown mode")
	}
}
