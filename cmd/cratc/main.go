// Command cratc is the CRAT optimizing compiler driver: it reads a PTX
// kernel, runs coordinated register allocation and TLP optimization for a
// target architecture and launch shape, and writes the transformed PTX
// (physical registers, spill code, shared-memory sub-stacks) together with
// the chosen (reg, TLP) configuration.
//
// Usage:
//
//	cratc -in kernel.ptx -block 128 [-grid 12] [-arch fermi|kepler]
//	      [-reg N] [-tlp N] [-no-shared-spill] [-backend a,b] [-out out.ptx]
//
// With -reg (and optionally -tlp) the design-space search is skipped and
// the kernel is allocated at exactly that budget — the "max regcount"
// workflow. Without them, cratc explores the pruned design space and picks
// the TPSC winner; because OptTLP profiling needs input data the tool does
// not have, OptTLP defaults to the static occupancy bound unless -opttlp
// is supplied. -backend selects which optimization backends generate
// candidates for that search (internal/backend; every registered backend
// competes under one TPSC selection when several are listed).
//
// With -verify the transformed kernel is differentially validated against
// the input kernel on generated inputs (internal/oracle): PASS or
// DIVERGENCE is reported per kernel, and a divergence exits non-zero
// without writing output.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"crat/internal/backend"
	"crat/internal/buildinfo"
	"crat/internal/core"
	"crat/internal/gpusim"
	"crat/internal/oracle"
	"crat/internal/passes"
	"crat/internal/ptx"
	"crat/internal/regalloc"
	"crat/internal/spillopt"
)

func main() {
	in := flag.String("in", "", "input PTX file (required)")
	out := flag.String("out", "", "output PTX file (default stdout)")
	kernelName := flag.String("kernel", "", "kernel to optimize when the module has several (paper: \"we only focus on the most time-consuming kernel\")")
	archFlag := flag.String("arch", "fermi", "target architecture: fermi or kepler")
	block := flag.Int("block", 0, "threads per block (required)")
	grid := flag.Int("grid", 1, "thread blocks per launch (used by -verify executions)")
	regCap := flag.Int("reg", 0, "allocate at exactly this register budget (skip search)")
	tlpFlag := flag.Int("tlp", 0, "thread-block TLP limit for spill planning")
	optTLP := flag.Int("opttlp", 0, "optimal TLP (default: occupancy at the default registers)")
	noShared := flag.Bool("no-shared-spill", false, "disable the shared-memory spilling optimization")
	backendsFlag := flag.String("backend", "", "comma-separated optimization backends for the design-space search (default: the CRAT strategy; see -passes); registered: "+strings.Join(backend.Names(), ","))
	coalesceFlag := flag.Bool("coalesce", false, "run conservative copy coalescing before coloring (useful on SSA-style nvcc PTX)")
	verify := flag.Bool("verify", false, "differentially validate the transformed kernel against the input on generated inputs; exit non-zero on divergence")
	verifyRuns := flag.Int("verify-runs", 0, "input sets for -verify (0 = oracle default)")
	verifySeed := flag.Int64("verify-seed", 0, "base input-generation seed for -verify")
	verbose := flag.Bool("v", false, "print the analysis and candidate table")
	listPasses := flag.Bool("passes", false, "list the pipeline passes in execution order and exit")
	verifyPasses := flag.Bool("verify-passes", false, "run the PTX verifier on the working kernel after every pipeline pass (fail fast naming the pass)")
	dumpAfter := flag.String("dump-after", "", "print the working kernel to stderr after every execution of the named pass")
	version := flag.Bool("version", false, "print build information and exit")
	flag.Parse()
	if *version {
		buildinfo.Print("cratc")
		return
	}

	backends := splitBackends(*backendsFlag)
	if _, err := backend.Resolve(backends); err != nil {
		check(err)
	}

	if *listPasses {
		// Include every backend-registered pass: nil lists the full
		// registry, an explicit -backend narrows to that pipeline.
		for _, p := range core.PipelinePassesFor(backends) {
			fmt.Printf("%-13s %s\n", p.Name, p.Desc)
		}
		return
	}

	if *in == "" || *block <= 0 {
		fmt.Fprintln(os.Stderr, "cratc: -in and -block are required")
		flag.Usage()
		os.Exit(2)
	}
	src, err := os.ReadFile(*in)
	check(err)
	module, err := ptx.ParseModule(string(src))
	check(err)
	var kernel *ptx.Kernel
	switch {
	case len(module.Kernels) == 0:
		check(fmt.Errorf("no kernels in %s", *in))
	case *kernelName != "":
		k, ok := module.Kernel(*kernelName)
		if !ok {
			check(fmt.Errorf("kernel %q not found in %s", *kernelName, *in))
		}
		kernel = k
	case len(module.Kernels) == 1:
		kernel = module.Kernels[0]
	default:
		names := make([]string, len(module.Kernels))
		for i, k := range module.Kernels {
			names[i] = k.Name
		}
		check(fmt.Errorf("module has %d kernels (%v); select one with -kernel", len(names), names))
	}
	check(kernel.Validate())

	arch := gpusim.FermiConfig()
	if *archFlag == "kepler" {
		arch = gpusim.KeplerConfig()
	}

	var dump func(pass string, k *ptx.Kernel)
	if *dumpAfter != "" {
		dump = func(pass string, k *ptx.Kernel) {
			if pass == *dumpAfter {
				fmt.Fprintf(os.Stderr, "// after pass %s\n%s", pass, ptx.Print(k))
			}
		}
	}

	var result *ptx.Kernel
	var chosenReg, chosenTLP int

	if *regCap > 0 {
		if len(backends) > 0 {
			check(fmt.Errorf("-backend selects candidate generators for the design-space search; it cannot be combined with the fixed-budget -reg mode"))
		}
		// Fixed-budget mode: the allocation and spilling stages still run as
		// passes, under a locally-built manager.
		pm := &passes.Manager{VerifyEach: *verifyPasses, DumpAfter: dump}
		allocOpts := regalloc.Options{Regs: *regCap, Coalesce: *coalesceFlag}
		alloc, err := regalloc.AllocateWith(pm, kernel, allocOpts)
		check(err)
		tlp := *tlpFlag
		if tlp == 0 {
			tlp = arch.Occupancy(alloc.UsedRegs, kernel.SharedBytes(), *block)
		}
		result = alloc.Kernel
		if !*noShared && len(alloc.Spills) > 0 && tlp > 0 {
			res, err := spillopt.OptimizeWith(pm, alloc, allocOpts, spillopt.Options{
				SpareShmBytes: backend.SpareShm(arch, kernel.SharedBytes(), tlp),
				BlockSize:     *block,
			})
			check(err)
			result = res.Alloc.Kernel
		}
		chosenReg, chosenTLP = *regCap, tlp
	} else {
		app := core.App{Name: kernel.Name, Kernel: kernel, Block: *block, Grid: 1}
		a, err := core.Analyze(app, arch)
		check(err)
		opt := *optTLP
		if opt == 0 {
			opt = a.MaxTLP
		}
		d, err := core.Optimize(app, core.Options{
			Arch: arch, Analysis: a, OptTLP: opt, SpillShared: !*noShared, Coalesce: *coalesceFlag,
			Backends:       backends,
			VerifyEachPass: *verifyPasses, DumpAfter: dump,
		})
		check(err)
		if *verbose {
			fmt.Fprintf(os.Stderr, "analysis: MaxReg=%d MinReg=%d MaxTLP=%d OptTLP=%d ShmSize=%d\n",
				a.MaxReg, a.MinReg, a.MaxTLP, opt, a.ShmSize)
			for _, c := range d.Candidates {
				fmt.Fprintf(os.Stderr, "candidate backend=%-10s reg=%-3d tlp=%d spills(local=%d shm=%d others=%d) tpsc=%.2f\n",
					c.Backend, c.Reg, c.TLP, c.Overhead.Locals(), c.Overhead.Shareds(), c.Overhead.AddrInsts, c.TPSC)
			}
			fmt.Fprintf(os.Stderr, "winner: backend=%s\n", d.Backend)
		}
		result = d.Chosen.Kernel()
		chosenReg, chosenTLP = d.Chosen.UsedRegs(), d.Chosen.TLP
	}

	if *verify {
		d, err := oracle.Check(kernel, result, "cratc", oracle.Options{
			Grid: *grid, Block: *block, Runs: *verifyRuns, Seed: *verifySeed,
		})
		check(err)
		if d != nil {
			fmt.Fprintf(os.Stderr, "cratc: DIVERGENCE %s: %v\n", kernel.Name, d)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "cratc: PASS %s (reg=%d tlp=%d)\n", kernel.Name, chosenReg, chosenTLP)
	}

	// Re-emit the whole module with the optimized kernel swapped in.
	for i, k := range module.Kernels {
		if k == kernel {
			module.Kernels[i] = result
		}
	}
	text := ptx.PrintModule(module)
	header := fmt.Sprintf("// cratc: arch=%s block=%d kernel=%s reg=%d tlp=%d\n",
		arch.Name, *block, result.Name, chosenReg, chosenTLP)
	if *out == "" {
		fmt.Print(header + text)
	} else {
		check(os.WriteFile(*out, []byte(header+text), 0o644))
	}
	fmt.Fprintf(os.Stderr, "cratc: chose reg=%d tlp=%d\n", chosenReg, chosenTLP)
}

func check(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "cratc:", err)
		os.Exit(1)
	}
}

// splitBackends parses a comma-separated -backend/-backends value,
// dropping empty elements so "a,,b" and trailing commas are forgiven.
func splitBackends(s string) []string {
	var out []string
	for _, name := range strings.Split(s, ",") {
		if name = strings.TrimSpace(name); name != "" {
			out = append(out, name)
		}
	}
	return out
}
