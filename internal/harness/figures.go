package harness

import (
	"fmt"

	"crat/internal/backend"
	"crat/internal/cfg"
	"crat/internal/core"
	"crat/internal/gpusim"
	"crat/internal/pool"
	"crat/internal/ptx"
	"crat/internal/regalloc"
	"crat/internal/spillopt"
	"crat/internal/workloads"
)

// Table1 reports the collected resource-usage parameters (paper Table 1)
// for every resource-sensitive application.
func (s *Session) Table1() (*Table, error) {
	t := &Table{
		ID:      "table1",
		Title:   "Collected resource usage parameters (paper Table 1)",
		Columns: []string{"app", "MaxReg", "MinReg", "DefaultReg", "BlockSize", "ShmSize", "MaxTLP", "OptTLP"},
	}
	s.forApps(t, workloads.Sensitive(), func(p workloads.Profile) (func(), error) {
		a, _, err := s.Analysis(p)
		if err != nil {
			return nil, err
		}
		return func() {
			t.AddRow(p.Abbr,
				fmt.Sprint(a.MaxReg), fmt.Sprint(a.MinReg), fmt.Sprint(a.DefaultReg),
				fmt.Sprint(a.BlockSize), fmt.Sprint(a.ShmSize),
				fmt.Sprint(a.MaxTLP), fmt.Sprint(a.OptTLP))
		}, nil
	})
	return t, nil
}

// Table2 dumps the simulated configuration (paper Table 2).
func (s *Session) Table2() *Table {
	c := s.Arch
	t := &Table{
		ID:      "table2",
		Title:   "Simulated configuration (paper Table 2)",
		Columns: []string{"parameter", "value"},
	}
	t.AddRow("architecture", c.Name)
	t.AddRow("SMs", fmt.Sprintf("%d (one simulated; L2/DRAM partitioned)", c.NumSMs))
	t.AddRow("register file / SM", fmt.Sprintf("%d x 32-bit (%dKB)", c.RegFileRegs, c.RegFileRegs*4/1024))
	t.AddRow("shared memory / SM", fmt.Sprintf("%dKB", c.SharedMemBytes/1024))
	t.AddRow("TLP limits", fmt.Sprintf("%d threads, %d blocks", c.MaxThreadsPerSM, c.MaxBlocksPerSM))
	t.AddRow("schedulers", fmt.Sprintf("%d per SM, %s", c.NumSchedulers, c.Scheduler))
	t.AddRow("L1 data cache", fmt.Sprintf("%dKB, %d-way, %dB lines, LRU, %d MSHRs",
		c.L1.SizeBytes/1024, c.L1.Assoc, c.L1.LineBytes, c.L1.MSHRs))
	t.AddRow("L2 slice", fmt.Sprintf("%dKB, %d-way", c.L2.SizeBytes/1024, c.L2.Assoc))
	t.AddRow("DRAM", fmt.Sprintf("%.0f B/cycle/SM, +%d cycles", c.DRAMBytesPerCycle, c.DRAMLat))
	t.AddRow("clock", fmt.Sprintf("%d MHz", c.ClockMHz))
	return t
}

// Table3 lists the applications (paper Table 3).
func Table3() *Table {
	t := &Table{
		ID:      "table3",
		Title:   "Applications (paper Table 3)",
		Columns: []string{"application", "kernel", "abbr", "suite", "class"},
	}
	for _, p := range workloads.All() {
		class := "resource insensitive"
		if p.Sensitive {
			class = "resource sensitive"
		}
		t.AddRow(p.Name, p.Kernel, p.Abbr, p.Suite, class)
	}
	return t
}

// Figure1 compares MaxTLP and OptTLP performance and register utilization
// (paper Figure 1a/1b).
func (s *Session) Figure1() (*Table, error) {
	t := &Table{
		ID:      "fig1",
		Title:   "Thread throttling: performance and register utilization (paper Fig 1)",
		Columns: []string{"app", "perf MaxTLP", "perf OptTLP", "util MaxTLP", "util OptTLP", "OptTLP/MaxTLP threads"},
	}
	var speeds, fracs []float64
	s.forApps(t, workloads.Sensitive(), func(p workloads.Profile) (func(), error) {
		a, _, err := s.Analysis(p)
		if err != nil {
			return nil, err
		}
		sp, err := s.Speedup(p, core.ModeMaxTLP)
		if err != nil {
			return nil, err
		}
		// Normalized to MaxTLP: OptTLP speedup = 1/sp.
		opt := 1 / sp
		utilMax := core.RegisterUtilization(s.Arch, a.MaxTLP, a.BlockSize, a.DefaultReg)
		utilOpt := core.RegisterUtilization(s.Arch, a.OptTLP, a.BlockSize, a.DefaultReg)
		frac := float64(a.OptTLP) / float64(a.MaxTLP)
		return func() {
			speeds = append(speeds, opt)
			fracs = append(fracs, frac)
			t.AddRow(p.Abbr, "1.000", f(opt), f(utilMax), f(utilOpt), f(frac))
		}, nil
	})
	t.AddRow("GEOMEAN", "1.000", f(Geomean(speeds)), "", "", f(Geomean(fracs)))
	t.Notes = append(t.Notes, "paper: OptTLP improves performance 1.42X average using ~55% of MaxTLP threads")
	return t, nil
}

// Figure2 sweeps the (reg, TLP) design space for CFD (paper Figure 2).
func (s *Session) Figure2() (*Table, error) {
	p, _ := workloads.ByAbbr("CFD")
	app := s.App(p)
	a, _, err := s.Analysis(p)
	if err != nil {
		return nil, err
	}
	t := &Table{
		ID:      "fig2",
		Title:   "Design space of register per-thread and TLP for CFD (paper Fig 2)",
		Columns: []string{"reg/thread", "TLP", "cycles", "speedup vs default"},
	}
	lo, hi := a.RegRange(s.Arch)
	// The sweep points are independent simulations: fan them out, then emit
	// rows in sweep order (the running-baseline logic is order-dependent).
	type point struct{ reg, tlp int }
	var pts []point
	for reg := lo; reg <= hi; reg += 3 {
		if tlp := a.TLPAt(s.Arch, reg); tlp != 0 {
			pts = append(pts, point{reg, tlp})
		}
	}
	stats := make([]gpusim.Stats, len(pts))
	errs := make([]error, len(pts))
	pool.Run(s.Workers(), len(pts), func(i int) {
		stats[i], errs[i] = s.simulatePoint(app, pts[i].reg, pts[i].tlp)
	})
	var baseline int64
	for i, pt := range pts {
		if errs[i] != nil {
			return nil, errs[i]
		}
		st := stats[i]
		if pt.reg == a.DefaultReg || baseline == 0 {
			baseline = st.Cycles
		}
		t.AddRow(fmt.Sprint(pt.reg), fmt.Sprint(pt.tlp), fmt.Sprint(st.Cycles),
			f(float64(baseline)/float64(st.Cycles)))
	}
	t.Notes = append(t.Notes, "staircase: raising reg/thread lowers occupancy; the best point balances both (paper: CFD optimum at high reg, mid TLP)")
	return t, nil
}

// simulatePoint allocates the app's kernel at the register budget and
// simulates it at the TLP under the session context.
func (s *Session) simulatePoint(app core.App, reg, tlp int) (gpusim.Stats, error) {
	alloc, err := regalloc.Allocate(app.Kernel, regalloc.Options{Regs: reg})
	if err != nil {
		return gpusim.Stats{}, err
	}
	return s.simulate(s.Context(), app, s.Arch, alloc.Kernel, alloc.UsedRegs, tlp)
}

// Figure3 details the selected design points for CFD: performance, cache
// behaviour, and register utilization (paper Figure 3).
func (s *Session) Figure3() (*Table, error) {
	p, _ := workloads.ByAbbr("CFD")
	a, _, err := s.Analysis(p)
	if err != nil {
		return nil, err
	}
	t := &Table{
		ID:      "fig3",
		Title:   "Selected design points for CFD (paper Fig 3)",
		Columns: []string{"solution", "(reg,TLP)", "speedup", "L1 hit", "congestion stalls", "reg util"},
	}
	base, _, err := s.Mode(p, core.ModeMaxTLP)
	if err != nil {
		return nil, err
	}
	add := func(name string, st gpusim.Stats, reg, tlp int) {
		t.AddRow(name, fmt.Sprintf("(%d,%d)", reg, tlp),
			f(float64(base.Cycles)/float64(st.Cycles)),
			f(st.L1HitRate()), fmt.Sprint(st.StallCongestion),
			f(core.RegisterUtilization(s.Arch, tlp, a.BlockSize, reg)))
	}
	st, d, err := s.Mode(p, core.ModeMaxTLP)
	if err != nil {
		return nil, err
	}
	add("MaxTLP", st, d.Chosen.Reg, d.Chosen.TLP)
	st, d, err = s.Mode(p, core.ModeOptTLP)
	if err != nil {
		return nil, err
	}
	add("OptTLP", st, d.Chosen.Reg, d.Chosen.TLP)
	// OptTLP+Reg: keep the optimal TLP but use the rightmost register count
	// of that stair.
	stairs := a.Staircase(s.Arch)
	if reg, ok := stairs[a.OptTLP]; ok {
		stp, err := s.simulatePoint(s.App(p), reg, a.OptTLP)
		if err != nil {
			return nil, err
		}
		add("OptTLP+Reg", stp, reg, a.OptTLP)
	}
	st, d, err = s.Mode(p, core.ModeCRAT)
	if err != nil {
		return nil, err
	}
	add("CRAT", st, d.Chosen.UsedRegs(), d.Chosen.TLP)
	return t, nil
}

// Figure5 shows the impact of throttling on L1 hit rate and congestion
// stalls (paper Figure 5).
func (s *Session) Figure5() (*Table, error) {
	t := &Table{
		ID:      "fig5",
		Title:   "Thread throttling impact on the L1 data cache (paper Fig 5)",
		Columns: []string{"app", "L1 hit MaxTLP", "L1 hit OptTLP", "congestion MaxTLP", "congestion OptTLP"},
	}
	s.forApps(t, workloads.Sensitive(), func(p workloads.Profile) (func(), error) {
		maxSt, _, err := s.Mode(p, core.ModeMaxTLP)
		if err != nil {
			return nil, err
		}
		optSt, _, err := s.Mode(p, core.ModeOptTLP)
		if err != nil {
			return nil, err
		}
		return func() {
			t.AddRow(p.Abbr, f(maxSt.L1HitRate()), f(optSt.L1HitRate()),
				fmt.Sprint(maxSt.StallCongestion), fmt.Sprint(optSt.StallCongestion))
		}, nil
	})
	t.Notes = append(t.Notes, "paper: throttling raises hit rate and cuts congestion stalls on cache-sensitive apps")
	return t, nil
}

// Figure6 shows the impact of register per-thread on TLP and dynamic
// instruction count for CFD (paper Figure 6).
func (s *Session) Figure6() (*Table, error) {
	p, _ := workloads.ByAbbr("CFD")
	app := s.App(p)
	a, _, err := s.Analysis(p)
	if err != nil {
		return nil, err
	}
	t := &Table{
		ID:      "fig6",
		Title:   "Register per-thread vs TLP and instruction count for CFD (paper Fig 6)",
		Columns: []string{"reg/thread", "TLP (occupancy)", "dynamic thread insts", "spill insts (static)"},
	}
	lo, hi := a.RegRange(s.Arch)
	type point struct{ reg, tlp int }
	var pts []point
	for reg := lo; reg <= hi; reg += 6 {
		if tlp := a.TLPAt(s.Arch, reg); tlp != 0 {
			pts = append(pts, point{reg, tlp})
		}
	}
	type row struct {
		insts int64
		spill int64
	}
	rows := make([]row, len(pts))
	errs := make([]error, len(pts))
	pool.Run(s.Workers(), len(pts), func(i int) {
		alloc, err := regalloc.Allocate(app.Kernel, regalloc.Options{Regs: pts[i].reg})
		if err != nil {
			errs[i] = err
			return
		}
		st, err := s.simulate(s.Context(), app, s.Arch, alloc.Kernel, alloc.UsedRegs, pts[i].tlp)
		if err != nil {
			errs[i] = err
			return
		}
		o := alloc.Kernel.SpillOverhead()
		rows[i] = row{insts: st.ThreadInsts, spill: int64(o.Locals() + o.Shareds() + o.AddrInsts)}
	})
	for i, pt := range pts {
		if errs[i] != nil {
			return nil, errs[i]
		}
		t.AddRow(fmt.Sprint(pt.reg), fmt.Sprint(pt.tlp), fmt.Sprint(rows[i].insts),
			fmt.Sprint(rows[i].spill))
	}
	t.Notes = append(t.Notes, "paper: more registers lower TLP (a); fewer registers inflate the instruction count through spills (b)")
	return t, nil
}

// Figure7 compares register and shared-memory utilization at MaxTLP
// (paper Figure 7).
func (s *Session) Figure7() (*Table, error) {
	t := &Table{
		ID:      "fig7",
		Title:   "Register vs shared memory utilization (paper Fig 7)",
		Columns: []string{"app", "register util", "shared util"},
	}
	var regs, shms []float64
	s.forApps(t, workloads.All(), func(p workloads.Profile) (func(), error) {
		a, err := core.Analyze(s.App(p), s.Arch)
		if err != nil {
			return nil, err
		}
		ru := core.RegisterUtilization(s.Arch, a.MaxTLP, a.BlockSize, a.DefaultReg)
		su := float64(a.ShmSize*int64(a.MaxTLP)) / float64(s.Arch.SharedMemBytes)
		if su > 1 {
			su = 1
		}
		return func() {
			regs = append(regs, ru)
			shms = append(shms, su)
			t.AddRow(p.Abbr, f(ru), f(su))
		}, nil
	})
	var rsum, ssum float64
	for i := range regs {
		rsum += regs[i]
		ssum += shms[i]
	}
	if len(regs) > 0 {
		t.AddRow("AVERAGE", f(rsum/float64(len(regs))), f(ssum/float64(len(shms))))
	}
	t.Notes = append(t.Notes, "paper: shared memory is far less utilized than registers (3.8% vs 65.5%) — the slack Algorithm 1 exploits")
	return t, nil
}

// Figure8 shows that which variable is spilled to shared memory matters,
// using FDTD (paper Figure 8): the knapsack's gain-driven choice vs the
// inverted (worst) choice.
func (s *Session) Figure8() (*Table, error) {
	p, _ := workloads.ByAbbr("FDTD")
	app := s.App(p)
	a, _, err := s.Analysis(p)
	if err != nil {
		return nil, err
	}
	t := &Table{
		ID:      "fig8",
		Title:   "Register and shared memory exploration for FDTD (paper Fig 8)",
		Columns: []string{"configuration", "(reg,TLP)", "cycles", "speedup"},
	}
	// (a) register cap exploration around the default.
	stairs := a.Staircase(s.Arch)
	defTLP := a.TLPAt(s.Arch, a.DefaultReg)
	baseSt, err := s.simulatePoint(app, a.DefaultReg, defTLP)
	if err != nil {
		return nil, err
	}
	t.AddRow(fmt.Sprintf("default reg=%d", a.DefaultReg), fmt.Sprintf("(%d,%d)", a.DefaultReg, defTLP),
		fmt.Sprint(baseSt.Cycles), "1.000")
	// Ascending TLP, not map order: the table is diffed against a golden,
	// so emission order must be deterministic.
	for tlp := 1; tlp <= len(stairs); tlp++ {
		reg, ok := stairs[tlp]
		if !ok || reg == a.DefaultReg || tlp > a.OptTLP {
			continue
		}
		st, err := s.simulatePoint(app, reg, tlp)
		if err != nil {
			return nil, err
		}
		t.AddRow(fmt.Sprintf("reg=%d", reg), fmt.Sprintf("(%d,%d)", reg, tlp),
			fmt.Sprint(st.Cycles), f(float64(baseSt.Cycles)/float64(st.Cycles)))
	}

	// (b) spill-choice comparison at the CRAT-chosen point: best-gain vs
	// worst-gain sub-stack placement with a spare that holds only part of
	// the stack.
	_, d, err := s.Mode(p, core.ModeCRATLocal)
	if err != nil {
		return nil, err
	}
	reg, tlp := d.Chosen.Reg, d.Chosen.TLP
	allocOpts := regalloc.Options{Regs: reg}
	alloc, err := regalloc.Allocate(app.Kernel, allocOpts)
	if err != nil {
		return nil, err
	}
	spare := backend.SpareShm(s.Arch, a.ShmSize, tlp) / 2 // partial capacity
	for _, cfg := range []struct {
		name string
		opts spillopt.Options
	}{
		{"spill best-gain vars (CRAT)", spillopt.Options{SpareShmBytes: spare, BlockSize: a.BlockSize, Split: spillopt.SplitPerVariable}},
		{"spill worst-gain vars", spillopt.Options{SpareShmBytes: spare, BlockSize: a.BlockSize, Split: spillopt.SplitPerVariable, PreferLowGain: true}},
	} {
		res, err := spillopt.Optimize(alloc, allocOpts, cfg.opts)
		if err != nil {
			return nil, err
		}
		st, err := s.simulate(s.Context(), app, s.Arch, res.Alloc.Kernel, res.Alloc.UsedRegs, tlp)
		if err != nil {
			return nil, err
		}
		t.AddRow(cfg.name, fmt.Sprintf("(%d,%d)", reg, tlp), fmt.Sprint(st.Cycles),
			f(float64(baseSt.Cycles)/float64(st.Cycles)))
	}
	t.Notes = append(t.Notes, "paper: spilling the right variable (var2) to shared memory beats the wrong one (var1): 1.64X vs 1.41X")
	return t, nil
}

// Figure12 cross-validates spill volume between the Chaitin-Briggs
// allocator and the independent linear-scan reference (standing in for the
// nvcc comparison of paper Figure 12), over a register-cap sweep of CFD.
func (s *Session) Figure12() (*Table, error) {
	p, _ := workloads.ByAbbr("CFD")
	app := s.App(p)
	a, _, err := s.Analysis(p)
	if err != nil {
		return nil, err
	}
	t := &Table{
		ID:      "fig12",
		Title:   "Spill load/store volume: Chaitin-Briggs vs linear scan (paper Fig 12)",
		Columns: []string{"reg cap", "CB insts", "CB bytes", "CB weighted", "LS insts", "LS bytes", "LS weighted"},
	}
	// Sweep from just above the feasibility floor (where the hot,
	// loop-resident values spill and the two allocators' victim choices
	// diverge) up past the default.
	lo := core.FeasibleFloor(app.Kernel, a.MaxReg) + 2
	for reg := lo; reg <= a.DefaultReg+8; reg += 4 {
		cb, err := regalloc.Allocate(app.Kernel, regalloc.Options{Regs: reg})
		if err != nil {
			continue
		}
		ls, err := regalloc.Allocate(app.Kernel, regalloc.Options{Regs: reg, Algorithm: regalloc.AlgoLinearScan})
		if err != nil {
			continue
		}
		cbW, err := weightedSpillCost(cb.Kernel)
		if err != nil {
			return nil, err
		}
		lsW, err := weightedSpillCost(ls.Kernel)
		if err != nil {
			return nil, err
		}
		t.AddRow(fmt.Sprint(reg),
			fmt.Sprint(cb.SpillLoads+cb.SpillStores), fmt.Sprint(cb.SpillStackBytes), f(cbW),
			fmt.Sprint(ls.SpillLoads+ls.SpillStores), fmt.Sprint(ls.SpillStackBytes), f(lsW))
	}
	t.Notes = append(t.Notes,
		"paper: the two allocators' spill volumes track each other without matching exactly (§5.2)",
		"'weighted' scales each spill instruction by 10^loop-depth: it exposes *which* variables each allocator chose to spill")
	return t, nil
}

// weightedSpillCost sums 10^loop-depth over the allocator-inserted spill
// instructions of a kernel: a static estimate of dynamic spill traffic.
func weightedSpillCost(k *ptx.Kernel) (float64, error) {
	g, err := cfg.Build(k)
	if err != nil {
		return 0, err
	}
	depth := g.InstLoopDepth()
	total := 0.0
	for i := range k.Insts {
		switch k.Insts[i].Meta {
		case ptx.MetaSpillLoad, ptx.MetaSpillStore:
			w := 1.0
			for d := 0; d < depth[i]; d++ {
				w *= 10
			}
			total += w
		}
	}
	return total, nil
}
