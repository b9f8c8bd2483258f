// Command gpusim runs a PTX kernel on the cycle-level SM simulator and
// prints the collected statistics. Kernel parameters are bound to
// freshly-allocated, pattern-initialized buffers: each pointer parameter
// gets -bytes of memory filled with a float32 ramp, scalar parameters take
// the values supplied with -scalars in declaration order.
//
// Usage:
//
//	gpusim -in kernel.ptx -grid 8 -block 128 [-arch fermi|kepler]
//	       [-tlp N] [-regs N] [-bytes 65536] [-scalars 100,42]
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"crat/internal/buildinfo"
	"crat/internal/gpusim"
	"crat/internal/ptx"
)

func main() {
	in := flag.String("in", "", "input PTX file (required)")
	archFlag := flag.String("arch", "fermi", "fermi or kepler")
	grid := flag.Int("grid", 1, "thread blocks")
	block := flag.Int("block", 128, "threads per block")
	tlp := flag.Int("tlp", 0, "TLP limit (0 = hardware maximum)")
	regs := flag.Int("regs", 0, "registers/thread for occupancy (0 = from kernel)")
	bufBytes := flag.Int64("bytes", 1<<20, "bytes allocated per pointer parameter")
	scalars := flag.String("scalars", "", "comma-separated values for scalar parameters")
	sched := flag.String("sched", "", "override scheduler: gto or lrr")
	tracePath := flag.String("trace", "", "write a per-issue trace to this file")
	version := flag.Bool("version", false, "print build information and exit")
	flag.Parse()
	if *version {
		buildinfo.Print("gpusim")
		return
	}

	if *in == "" {
		fmt.Fprintln(os.Stderr, "gpusim: -in is required")
		flag.Usage()
		os.Exit(2)
	}
	arch, err := gpusim.ConfigByName(*archFlag)
	if err != nil {
		fmt.Fprintln(os.Stderr, "gpusim:", err)
		os.Exit(2)
	}
	src, err := os.ReadFile(*in)
	check(err)
	kernel, err := ptx.Parse(string(src))
	check(err)
	check(ptx.Verify(kernel, "parse"))

	switch *sched {
	case "lrr":
		arch.Scheduler = gpusim.SchedLRR
	case "gto", "":
	default:
		check(fmt.Errorf("unknown scheduler %q", *sched))
	}

	var scalarVals []uint64
	if *scalars != "" {
		for _, s := range strings.Split(*scalars, ",") {
			v, err := strconv.ParseUint(strings.TrimSpace(s), 0, 64)
			check(err)
			scalarVals = append(scalarVals, v)
		}
	}

	mem := gpusim.NewMemory()
	var params []uint64
	si := 0
	for _, p := range kernel.Params {
		if p.Type == ptx.U64 {
			base := mem.Alloc(*bufBytes)
			for off := int64(0); off < *bufBytes; off += 4 {
				mem.WriteFloat32(base+uint64(off), float32(off/4%17)*0.25)
			}
			params = append(params, base)
			continue
		}
		if si < len(scalarVals) {
			params = append(params, scalarVals[si])
			si++
		} else {
			params = append(params, 0)
		}
	}

	launch := gpusim.Launch{
		Kernel: kernel, Grid: *grid, Block: *block,
		Params: params, TLPLimit: *tlp, RegsPerThread: *regs,
	}
	if *tracePath != "" {
		tf, err := os.Create(*tracePath)
		check(err)
		defer tf.Close()
		launch.Trace = tf
	}
	sim, err := gpusim.NewSimulator(arch, mem, launch)
	check(err)
	st, err := sim.Run()
	if err != nil {
		var f *gpusim.Fault
		if errors.As(err, &f) {
			fmt.Fprintf(os.Stderr, "gpusim: simulation fault\n")
			fmt.Fprintf(os.Stderr, "  kind    %s\n", f.Kind)
			fmt.Fprintf(os.Stderr, "  kernel  %s\n", f.Kernel)
			if f.PC >= 0 {
				fmt.Fprintf(os.Stderr, "  pc      %d  (%s)\n", f.PC, f.Disasm)
			}
			if f.Warp >= 0 {
				fmt.Fprintf(os.Stderr, "  warp    %d (block %d)\n", f.Warp, f.Block)
			}
			fmt.Fprintf(os.Stderr, "  cycle   %d\n", f.Cycle)
			fmt.Fprintf(os.Stderr, "  detail  %v\n", err)
			os.Exit(1)
		}
		check(err)
	}

	fmt.Printf("kernel           %s\n", kernel.Name)
	fmt.Printf("cycles           %d\n", st.Cycles)
	fmt.Printf("IPC              %.3f\n", st.IPC())
	fmt.Printf("warp insts       %d\n", st.WarpInsts)
	fmt.Printf("thread insts     %d\n", st.ThreadInsts)
	fmt.Printf("concurrent TLP   %d (regs/thread %d, shm/block %d)\n",
		st.ConcurrentBlocks, st.RegsPerThread, st.SharedPerBlock)
	fmt.Printf("L1 hit rate      %.3f (%d/%d)\n", st.L1HitRate(), st.L1Hits, st.L1Accesses)
	fmt.Printf("L2 hit rate      %.3f\n", st.L2HitRate())
	fmt.Printf("DRAM bytes       %d\n", st.DRAMBytes)
	fmt.Printf("stalls           congestion=%d memdata=%d alu=%d barrier=%d empty=%d\n",
		st.StallCongestion, st.StallMemData, st.StallALU, st.StallBarrier, st.StallEmpty)
	fmt.Printf("global ld/st     %d/%d\n", st.GlobalLoads, st.GlobalStores)
	fmt.Printf("local  ld/st     %d/%d (spill ops %d)\n", st.LocalLoads, st.LocalStores, st.SpillLocalOps)
	fmt.Printf("shared ld/st     %d/%d (bank-conflict cycles %d)\n", st.SharedLoads, st.SharedStores, st.BankConflictCycles)
	e := gpusim.DefaultEnergyModel().Energy(arch, st)
	fmt.Printf("energy           %.3e J\n", e)
}

func check(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "gpusim:", err)
		os.Exit(1)
	}
}
