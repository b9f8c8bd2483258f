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
	"io"
	"os"
	"strconv"
	"strings"

	"crat/internal/buildinfo"
	"crat/internal/cli"
	"crat/internal/gpusim"
	"crat/internal/ptx"
)

func main() {
	os.Exit(cli.Exit("gpusim", run(os.Args[1:], os.Stdout, os.Stderr), os.Stderr))
}

// run is gpusim's body: args are the command-line arguments without the
// program name; the statistics go to stdout, diagnostics to stderr.
func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("gpusim", flag.ContinueOnError)
	fs.SetOutput(stderr)
	in := fs.String("in", "", "input PTX file (required)")
	archFlag := fs.String("arch", "fermi", "fermi or kepler")
	grid := fs.Int("grid", 1, "thread blocks")
	block := fs.Int("block", 128, "threads per block")
	tlp := fs.Int("tlp", 0, "TLP limit (0 = hardware maximum)")
	regs := fs.Int("regs", 0, "registers/thread for occupancy (0 = from kernel)")
	bufBytes := fs.Int64("bytes", 1<<20, "bytes allocated per pointer parameter")
	scalars := fs.String("scalars", "", "comma-separated values for scalar parameters")
	sched := fs.String("sched", "", "override scheduler: gto or lrr")
	tracePath := fs.String("trace", "", "write a per-issue trace to this file")
	version := fs.Bool("version", false, "print build information and exit")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return err
		}
		return cli.UsageError{}
	}
	if *version {
		buildinfo.Print("gpusim")
		return nil
	}

	if *in == "" {
		fmt.Fprintln(stderr, "gpusim: -in is required")
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
	if err := ptx.Verify(kernel, "parse"); err != nil {
		return err
	}

	switch *sched {
	case "lrr":
		arch.Scheduler = gpusim.SchedLRR
	case "gto", "":
	default:
		return fmt.Errorf("unknown scheduler %q", *sched)
	}

	var scalarVals []uint64
	if *scalars != "" {
		for _, s := range strings.Split(*scalars, ",") {
			v, err := strconv.ParseUint(strings.TrimSpace(s), 0, 64)
			if err != nil {
				return err
			}
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
		if err != nil {
			return err
		}
		defer tf.Close()
		launch.Trace = tf
	}
	sim, err := gpusim.NewSimulator(arch, mem, launch)
	if err != nil {
		return err
	}
	st, err := sim.Run()
	var f *gpusim.Fault
	if errors.As(err, &f) {
		return faultReport(f, err)
	}
	if err != nil {
		return err
	}

	fmt.Fprintf(stdout, "kernel           %s\n", kernel.Name)
	fmt.Fprintf(stdout, "cycles           %d\n", st.Cycles)
	fmt.Fprintf(stdout, "IPC              %.3f\n", st.IPC())
	fmt.Fprintf(stdout, "warp insts       %d\n", st.WarpInsts)
	fmt.Fprintf(stdout, "thread insts     %d\n", st.ThreadInsts)
	fmt.Fprintf(stdout, "concurrent TLP   %d (regs/thread %d, shm/block %d)\n",
		st.ConcurrentBlocks, st.RegsPerThread, st.SharedPerBlock)
	fmt.Fprintf(stdout, "L1 hit rate      %.3f (%d/%d)\n", st.L1HitRate(), st.L1Hits, st.L1Accesses)
	fmt.Fprintf(stdout, "L2 hit rate      %.3f\n", st.L2HitRate())
	fmt.Fprintf(stdout, "DRAM bytes       %d\n", st.DRAMBytes)
	fmt.Fprintf(stdout, "stalls           congestion=%d memdata=%d alu=%d barrier=%d empty=%d\n",
		st.StallCongestion, st.StallMemData, st.StallALU, st.StallBarrier, st.StallEmpty)
	fmt.Fprintf(stdout, "global ld/st     %d/%d\n", st.GlobalLoads, st.GlobalStores)
	fmt.Fprintf(stdout, "local  ld/st     %d/%d (spill ops %d)\n", st.LocalLoads, st.LocalStores, st.SpillLocalOps)
	fmt.Fprintf(stdout, "shared ld/st     %d/%d (bank-conflict cycles %d)\n", st.SharedLoads, st.SharedStores, st.BankConflictCycles)
	e := gpusim.DefaultEnergyModel().Energy(arch, st)
	fmt.Fprintf(stdout, "energy           %.3e J\n", e)
	return nil
}

// faultReport renders a structured simulator fault as the multi-line
// block exit prints after "gpusim: ".
func faultReport(f *gpusim.Fault, err error) error {
	var b strings.Builder
	fmt.Fprintf(&b, "simulation fault\n")
	fmt.Fprintf(&b, "  kind    %s\n", f.Kind)
	fmt.Fprintf(&b, "  kernel  %s\n", f.Kernel)
	if f.PC >= 0 {
		fmt.Fprintf(&b, "  pc      %d  (%s)\n", f.PC, f.Disasm)
	}
	if f.Warp >= 0 {
		fmt.Fprintf(&b, "  warp    %d (block %d)\n", f.Warp, f.Block)
	}
	fmt.Fprintf(&b, "  cycle   %d\n", f.Cycle)
	fmt.Fprintf(&b, "  detail  %v", err)
	return errors.New(b.String())
}
