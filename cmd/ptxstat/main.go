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
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"

	"crat/internal/buildinfo"
	"crat/internal/cfg"
	"crat/internal/cli"
	"crat/internal/core"
	"crat/internal/gpusim"
	"crat/internal/ptx"
)

func main() {
	os.Exit(cli.Exit("ptxstat", run(os.Args[1:], os.Stdout, os.Stderr), os.Stderr))
}

// run is ptxstat's body: args are the command-line arguments without the
// program name; the report goes to stdout, diagnostics to stderr.
func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("ptxstat", flag.ContinueOnError)
	fs.SetOutput(stderr)
	in := fs.String("in", "", "input PTX file (required)")
	archFlag := fs.String("arch", "fermi", "fermi or kepler")
	block := fs.Int("block", 128, "threads per block for the staircase")
	showCFG := fs.Bool("cfg", false, "print basic blocks and edges")
	showRanges := fs.Bool("ranges", false, "print per-register live ranges")
	version := fs.Bool("version", false, "print build information and exit")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return err
		}
		return cli.UsageError{}
	}
	if *version {
		buildinfo.Print("ptxstat")
		return nil
	}

	if *in == "" {
		fmt.Fprintln(stderr, "ptxstat: -in is required")
		fs.Usage()
		return cli.UsageError{}
	}
	arch, err := gpusim.ConfigByName(*archFlag)
	if err != nil {
		return cli.UsageError{Msg: err.Error()}
	}
	src, err := os.ReadFile(*in)
	if err != nil {
		return err
	}
	kernel, err := ptx.Parse(string(src))
	if err != nil {
		return err
	}
	if err := kernel.Validate(); err != nil {
		return err
	}

	// Instruction mix.
	stats := kernel.StaticStats()
	n32, n64, npred := kernel.RegCounts()
	fmt.Fprintf(stdout, "kernel %s\n", kernel.Name)
	fmt.Fprintf(stdout, "  instructions     %d (loads %d, stores %d, branches %d, barriers %d, sfu %d)\n",
		stats.Insts, stats.Loads, stats.Stores, stats.Branches, stats.Barriers, stats.SFU)
	fmt.Fprintf(stdout, "  memory spaces    global %d, shared %d, local %d\n",
		stats.GlobalOps, stats.SharedOps, stats.LocalOps)
	fmt.Fprintf(stdout, "  virtual regs     %d x 32-bit, %d x 64-bit, %d predicates\n", n32, n64, npred)
	fmt.Fprintf(stdout, "  shared memory    %d B/block, local %d B/thread\n",
		kernel.SharedBytes(), kernel.LocalBytes())

	// CFG and loops.
	g, err := cfg.Build(kernel)
	if err != nil {
		return err
	}
	depth := g.LoopDepth()
	maxDepth := 0
	for _, d := range depth {
		if d > maxDepth {
			maxDepth = d
		}
	}
	fmt.Fprintf(stdout, "  basic blocks     %d (max loop depth %d)\n", g.NumBlocks()-1, maxDepth)
	if *showCFG {
		for _, b := range g.Blocks {
			if b.Index == g.ExitIndex {
				fmt.Fprintf(stdout, "    B%-3d (exit)\n", b.Index)
				continue
			}
			fmt.Fprintf(stdout, "    B%-3d insts [%d,%d) depth %d -> %v\n",
				b.Index, b.Start, b.End, depth[b.Index], b.Succs)
		}
	}

	// Liveness and pressure.
	lv := cfg.ComputeLiveness(g)
	fmt.Fprintf(stdout, "  peak live slots  %d (32-bit units)\n", lv.MaxLivePressure())
	if *showRanges {
		ranges := lv.LiveRanges()
		sort.Slice(ranges, func(a, b int) bool { return ranges[a].Weight > ranges[b].Weight })
		fmt.Fprintln(stdout, "  hottest live ranges (weighted accesses):")
		for i, r := range ranges {
			if i >= 10 || r.Start < 0 {
				break
			}
			fmt.Fprintf(stdout, "    reg %-4d [%4d,%4d] uses %-3d defs %-3d weight %.0f\n",
				r.Reg, r.Start, r.End, r.Uses, r.Defs, r.Weight)
		}
	}

	// Register requirements, segments and the occupancy staircase.
	a, err := core.Analyze(core.App{Name: kernel.Name, Kernel: kernel, Block: *block, Grid: 1}, arch)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "  MaxReg           %d   MinReg %d (on %s)\n", a.MaxReg, a.MinReg, arch.Name)

	comp, mem := 0, 0
	for _, s := range a.Segments {
		if s.Kind == core.SegMemory {
			mem++
		} else {
			comp++
		}
	}
	fmt.Fprintf(stdout, "  segments         %d compute / %d memory\n", comp, mem)

	stairs := a.Staircase(arch)
	fmt.Fprintf(stdout, "  staircase @%d threads/block (TLP -> rightmost reg):", *block)
	for t := 1; t <= len(stairs); t++ {
		fmt.Fprintf(stdout, " %d->%d", t, stairs[t])
	}
	fmt.Fprintln(stdout)
	return nil
}
