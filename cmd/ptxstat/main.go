// Command ptxstat prints the static analyses CRAT runs on a PTX kernel:
// instruction mix, control-flow graph, loop nesting, live-range pressure,
// the computation/memory segmentation, register requirements, and the
// occupancy staircase on a target architecture.
//
// Usage:
//
//	ptxstat -in kernel.ptx [-arch fermi|kepler] [-block 128] [-cfg] [-ranges]
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"

	"crat/internal/buildinfo"
	"crat/internal/cfg"
	"crat/internal/core"
	"crat/internal/gpusim"
	"crat/internal/ptx"
)

func main() {
	in := flag.String("in", "", "input PTX file (required)")
	archFlag := flag.String("arch", "fermi", "fermi or kepler")
	block := flag.Int("block", 128, "threads per block for the staircase")
	showCFG := flag.Bool("cfg", false, "print basic blocks and edges")
	showRanges := flag.Bool("ranges", false, "print per-register live ranges")
	version := flag.Bool("version", false, "print build information and exit")
	flag.Parse()
	if *version {
		buildinfo.Print("ptxstat")
		return
	}

	if *in == "" {
		fmt.Fprintln(os.Stderr, "ptxstat: -in is required")
		flag.Usage()
		os.Exit(2)
	}
	arch, err := gpusim.ConfigByName(*archFlag)
	if err != nil {
		fmt.Fprintln(os.Stderr, "ptxstat:", err)
		os.Exit(2)
	}
	src, err := os.ReadFile(*in)
	check(err)
	kernel, err := ptx.Parse(string(src))
	check(err)
	check(kernel.Validate())

	// Instruction mix.
	stats := kernel.StaticStats()
	n32, n64, npred := kernel.RegCounts()
	fmt.Printf("kernel %s\n", kernel.Name)
	fmt.Printf("  instructions     %d (loads %d, stores %d, branches %d, barriers %d, sfu %d)\n",
		stats.Insts, stats.Loads, stats.Stores, stats.Branches, stats.Barriers, stats.SFU)
	fmt.Printf("  memory spaces    global %d, shared %d, local %d\n",
		stats.GlobalOps, stats.SharedOps, stats.LocalOps)
	fmt.Printf("  virtual regs     %d x 32-bit, %d x 64-bit, %d predicates\n", n32, n64, npred)
	fmt.Printf("  shared memory    %d B/block, local %d B/thread\n",
		kernel.SharedBytes(), kernel.LocalBytes())

	// CFG and loops.
	g, err := cfg.Build(kernel)
	check(err)
	depth := g.LoopDepth()
	maxDepth := 0
	for _, d := range depth {
		if d > maxDepth {
			maxDepth = d
		}
	}
	fmt.Printf("  basic blocks     %d (max loop depth %d)\n", g.NumBlocks()-1, maxDepth)
	if *showCFG {
		for _, b := range g.Blocks {
			if b.Index == g.ExitIndex {
				fmt.Printf("    B%-3d (exit)\n", b.Index)
				continue
			}
			fmt.Printf("    B%-3d insts [%d,%d) depth %d -> %v\n",
				b.Index, b.Start, b.End, depth[b.Index], b.Succs)
		}
	}

	// Liveness and pressure.
	lv := cfg.ComputeLiveness(g)
	fmt.Printf("  peak live slots  %d (32-bit units)\n", lv.MaxLivePressure())
	if *showRanges {
		ranges := lv.LiveRanges()
		sort.Slice(ranges, func(a, b int) bool { return ranges[a].Weight > ranges[b].Weight })
		fmt.Println("  hottest live ranges (weighted accesses):")
		for i, r := range ranges {
			if i >= 10 || r.Start < 0 {
				break
			}
			fmt.Printf("    reg %-4d [%4d,%4d] uses %-3d defs %-3d weight %.0f\n",
				r.Reg, r.Start, r.End, r.Uses, r.Defs, r.Weight)
		}
	}

	// Register requirements, segments and the occupancy staircase.
	a, err := core.Analyze(core.App{Name: kernel.Name, Kernel: kernel, Block: *block, Grid: 1}, arch)
	check(err)
	fmt.Printf("  MaxReg           %d   MinReg %d (on %s)\n", a.MaxReg, a.MinReg, arch.Name)

	comp, mem := 0, 0
	for _, s := range a.Segments {
		if s.Kind == core.SegMemory {
			mem++
		} else {
			comp++
		}
	}
	fmt.Printf("  segments         %d compute / %d memory\n", comp, mem)

	stairs := a.Staircase(arch)
	fmt.Printf("  staircase @%d threads/block (TLP -> rightmost reg):", *block)
	for t := 1; t <= len(stairs); t++ {
		fmt.Printf(" %d->%d", t, stairs[t])
	}
	fmt.Println()
}

func check(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "ptxstat:", err)
		os.Exit(1)
	}
}
