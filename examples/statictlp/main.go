// Statictlp: estimate the optimal TLP by static code analysis (paper §4.1,
// Figure 10) and compare it with exhaustive profiling. The static path
// segments the kernel into computation/memory runs, mimics GTO scheduling
// with a contention-adjusted memory latency, and needs a single cheap
// TLP=1 measurement instead of MaxTLP full profiling runs.
//
//	go run ./examples/statictlp
package main

import (
	"context"
	"fmt"
	"log"
	"time"

	"crat/internal/core"
	"crat/internal/gpusim"
	"crat/internal/workloads"
)

func main() {
	arch := gpusim.FermiConfig()
	for _, abbr := range []string{"KMN", "CFD", "STM"} {
		p, _ := workloads.ByAbbr(abbr)
		app := p.App()
		a, err := core.Analyze(app, arch)
		if err != nil {
			log.Fatal(err)
		}

		// Segment view of the kernel (paper Figure 10a).
		nComp, nMem := 0, 0
		for _, s := range a.Segments {
			if s.Kind == core.SegMemory {
				nMem++
			} else {
				nComp++
			}
		}
		fmt.Printf("%s: %d compute / %d memory segments, MaxTLP=%d\n", abbr, nComp, nMem, a.MaxTLP)

		// Profiling: simulate every TLP.
		start := time.Now()
		profiled, runs, err := core.ProfileOptTLPNCtx(context.Background(), app, arch, a, 1, core.SimulateKernelCtx)
		if err != nil {
			log.Fatal(err)
		}
		profWall := time.Since(start)

		// Static: one TLP=1 run feeds the GTO-mimicking model.
		start = time.Now()
		in, err := core.MeasureStaticInputs(context.Background(), app, arch, a, core.SimulateKernelCtx)
		if err != nil {
			log.Fatal(err)
		}
		estimated := core.EstimateOptTLP(a, arch, in)
		statWall := time.Since(start)

		fmt.Printf("  profiled OptTLP = %d  (%d simulations, %s)\n", profiled, len(runs), profWall.Round(time.Millisecond))
		fmt.Printf("  static   OptTLP = %d  (1 simulation,  %s; hit@1=%.3f footprint=%.0fB)\n",
			estimated, statWall.Round(time.Millisecond), in.HitRatioAtOne, in.BlockFootprint)

		// How much performance does the estimate leave behind?
		best := runs[profiled-1].Cycles
		est := runs[estimated-1].Cycles
		fmt.Printf("  cycles at profiled=%d vs static=%d: %.1f%% gap\n\n",
			best, est, 100*(float64(est)/float64(best)-1))
	}
}
