// Command calibrate prints per-application analysis and mode comparisons;
// it is the development tool used to tune the workload parameter sheets
// against the paper's published per-app behaviour.
//
// Usage:
//
//	calibrate [-apps BLK,CFD] [-modes] [-arch fermi|kepler]
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"
	"time"

	"crat/internal/buildinfo"
	"crat/internal/core"
	"crat/internal/gpusim"
	"crat/internal/workloads"
)

func main() {
	appsFlag := flag.String("apps", "", "comma-separated abbreviations (default: all sensitive)")
	modes := flag.Bool("modes", false, "also simulate the four §7.2 modes")
	archFlag := flag.String("arch", "fermi", "fermi or kepler")
	version := flag.Bool("version", false, "print build information and exit")
	flag.Parse()
	if *version {
		buildinfo.Print("calibrate")
		return
	}

	arch := gpusim.FermiConfig()
	if *archFlag == "kepler" {
		arch = gpusim.KeplerConfig()
	}

	var profiles []workloads.Profile
	if *appsFlag == "" {
		profiles = workloads.Sensitive()
	} else {
		for _, a := range strings.Split(*appsFlag, ",") {
			p, ok := workloads.ByAbbr(strings.TrimSpace(a))
			if !ok {
				fmt.Fprintf(os.Stderr, "unknown app %q\n", a)
				os.Exit(1)
			}
			profiles = append(profiles, p)
		}
	}

	costs, err := gpusim.MeasureCosts(arch)
	check(err)
	fmt.Printf("costs: local=%.1f shared=%.1f\n", costs.Local, costs.Shared)

	ctx := context.Background()
	for _, p := range profiles {
		start := time.Now()
		app := p.App()
		a, err := core.Analyze(app, arch)
		check(err)
		opt, runs, err := core.ProfileOptTLPNCtx(ctx, app, arch, a, 1)
		check(err)
		a.OptTLP = opt
		stairs := a.Staircase(arch)
		var tlps []int
		for t := range stairs {
			tlps = append(tlps, t)
		}
		sort.Ints(tlps)
		var sb strings.Builder
		for _, t := range tlps {
			fmt.Fprintf(&sb, " %d:%d", t, stairs[t])
		}
		fmt.Printf("%-5s maxreg=%-3d feasfloor=%-3d def=%-3d maxTLP=%d optTLP=%d stairs={%s }\n",
			p.Abbr, a.MaxReg, core.FeasibleFloor(app.Kernel, a.MaxReg), a.DefaultReg, a.MaxTLP, a.OptTLP, sb.String())
		for i, st := range runs {
			fmt.Printf("        tlp=%d cycles=%-9d ipc=%.2f l1=%.3f congest=%-8d local=%d\n",
				i+1, st.Cycles, st.IPC(), st.L1HitRate(), st.StallCongestion, st.LocalOps())
		}

		if *modes {
			d, err := core.OptimizeCtx(ctx, app, core.Options{Arch: arch, Analysis: a, OptTLP: opt, SpillShared: true, Costs: costs})
			check(err)
			for _, c := range d.Candidates {
				fmt.Printf("        cand reg=%-3d tlp=%d locals=%d shm=%d others=%d tpsc=%.2f\n",
					c.Reg, c.TLP, c.Overhead.Locals(), c.Overhead.Shareds(), c.Overhead.AddrInsts, c.TPSC)
			}
			fmt.Printf("        chosen: reg=%d tlp=%d\n", d.Chosen.Reg, d.Chosen.TLP)
			var base int64
			for _, m := range []core.Mode{core.ModeMaxTLP, core.ModeOptTLP, core.ModeCRATLocal, core.ModeCRAT} {
				st, dd, err := core.RunModeCtx(ctx, app, m, core.Options{Arch: arch, Analysis: a, OptTLP: opt, Costs: costs})
				check(err)
				if m == core.ModeOptTLP {
					base = st.Cycles
				}
				speed := 0.0
				if base > 0 {
					speed = float64(base) / float64(st.Cycles)
				}
				fmt.Printf("        %-10s reg=%-3d tlp=%d cycles=%-9d vsOpt=%.3f l1=%.3f local=%d\n",
					m, dd.Chosen.Reg, dd.Chosen.TLP, st.Cycles, speed, st.L1HitRate(), st.LocalOps())
			}
		}
		fmt.Printf("        (%.1fs)\n", time.Since(start).Seconds())
	}
}

func check(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}
