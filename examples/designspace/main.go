// Designspace: run the full CRAT pipeline on the CFD workload — the paper's
// motivating example — and compare the four configurations of §7.2.
//
//	go run ./examples/designspace
package main

import (
	"context"
	"fmt"
	"log"

	"crat/internal/core"
	"crat/internal/gpusim"
	"crat/internal/workloads"
)

func main() {
	arch := gpusim.FermiConfig()
	p, ok := workloads.ByAbbr("CFD")
	if !ok {
		log.Fatal("CFD workload missing")
	}
	app := p.App()

	// Resource usage analysis (paper Table 1).
	a, err := core.Analyze(app, arch)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("analysis: MaxReg=%d MinReg=%d DefaultReg=%d BlockSize=%d MaxTLP=%d\n",
		a.MaxReg, a.MinReg, a.DefaultReg, a.BlockSize, a.MaxTLP)

	// The (reg, TLP) staircase (paper Figure 11).
	stairs := a.Staircase(arch)
	fmt.Print("staircase (TLP -> rightmost reg):")
	for t := 1; t <= len(stairs); t++ {
		fmt.Printf(" %d->%d", t, stairs[t])
	}
	fmt.Println()

	// OptTLP through profiling (paper §4.1).
	opt, runs, err := core.ProfileOptTLPNCtx(context.Background(), app, arch, a, 1, core.SimulateKernelCtx)
	if err != nil {
		log.Fatal(err)
	}
	a.OptTLP = opt
	fmt.Printf("profiled OptTLP = %d:\n", opt)
	for i, st := range runs {
		fmt.Printf("  TLP=%d: %8d cycles, L1 hit %.3f\n", i+1, st.Cycles, st.L1HitRate())
	}

	// Full pipeline: pruning, per-candidate allocation + Algorithm 1, TPSC.
	d, err := core.OptimizeCtx(context.Background(), app, core.Options{Arch: arch, Analysis: a, OptTLP: opt, SpillShared: true})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("candidates after pruning:")
	for _, c := range d.Candidates {
		fmt.Printf("  (reg=%-2d TLP=%d): local spills=%-3d shared spills=%-3d TPSC=%.1f\n",
			c.Reg, c.TLP, c.Overhead.Locals(), c.Overhead.Shareds(), c.TPSC)
	}
	fmt.Printf("CRAT chose (reg=%d, TLP=%d)\n\n", d.Chosen.UsedRegs(), d.Chosen.TLP)

	// Compare the four configurations (paper Figure 13).
	var base int64
	for _, m := range []core.Mode{core.ModeMaxTLP, core.ModeOptTLP, core.ModeCRATLocal, core.ModeCRAT} {
		opts, err := m.Options(app, core.Options{Arch: arch, Analysis: a, OptTLP: opt})
		if err != nil {
			log.Fatal(err)
		}
		dd, err := core.OptimizeCtx(context.Background(), app, opts)
		if err != nil {
			log.Fatal(err)
		}
		st, err := core.SimulateKernelCtx(context.Background(), app, arch, dd.Chosen.Kernel(), dd.Chosen.UsedRegs(), m.LaunchTLP(dd))
		if err != nil {
			log.Fatal(err)
		}
		if m == core.ModeOptTLP {
			base = st.Cycles
		}
		speed := "    -"
		if base > 0 {
			speed = fmt.Sprintf("%.3f", float64(base)/float64(st.Cycles))
		}
		fmt.Printf("%-11s reg=%-3d TLP=%d  cycles=%-9d  vs OptTLP %s  L1 %.3f  local ops %d\n",
			m, dd.Chosen.UsedRegs(), dd.Chosen.TLP, st.Cycles, speed, st.L1HitRate(), st.LocalOps())
	}
}
