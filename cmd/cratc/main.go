// Command cratc is the CRAT optimizing compiler driver: it reads a PTX
// kernel, runs coordinated register allocation and TLP optimization for a
// target architecture and launch shape, and writes the transformed PTX
// (physical registers, spill code, shared-memory sub-stacks) together with
// the chosen (reg, TLP) configuration.
//
// Usage:
//
//	cratc -in kernel.ptx -block 128 [-grid 12] [-arch fermi|kepler]
//	      [-reg N] [-tlp N] [-backend a,b] [-out out.ptx]
//
// With -reg (and optionally -tlp) the design-space search is skipped and
// the kernel is allocated at exactly that budget — the "max regcount"
// workflow, compiled as the pipeline's pinned design point on every
// -backend listed (spills still go to spare shared memory under the
// default crat backend; -backend crat-local keeps them in local memory).
// Without them, cratc explores the pruned design space and picks the TPSC
// winner; because OptTLP profiling needs input data the tool does not
// have, OptTLP defaults to the static occupancy bound unless -opttlp is
// supplied. -backend selects which optimization backends generate
// candidates (internal/backend; every registered backend competes under
// one TPSC selection when several are listed; default crat).
//
// With -verify the pipeline's oracle gate differentially validates the
// transformed kernel against the input kernel on generated inputs: PASS or
// DIVERGENCE is reported, and a divergence exits non-zero without writing
// output. An unknown flag or -arch, or -tlp without -reg, exits 2.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"crat/internal/backend"
	"crat/internal/buildinfo"
	"crat/internal/cli"
	"crat/internal/core"
	"crat/internal/gpusim"
	"crat/internal/ptx"
)

func main() {
	os.Exit(cli.Exit("cratc", run(os.Args[1:], os.Stdout, os.Stderr), os.Stderr))
}

// run is cratc's body: args are the command-line arguments without the
// program name, stdout receives the PTX when -out is unset, and stderr the
// diagnostics.
func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("cratc", flag.ContinueOnError)
	fs.SetOutput(stderr)
	in := fs.String("in", "", "input PTX file (required)")
	out := fs.String("out", "", "output PTX file (default stdout)")
	kernelName := fs.String("kernel", "", "kernel to optimize when the module has several (paper: \"we only focus on the most time-consuming kernel\")")
	archFlag := fs.String("arch", "fermi", "target architecture: fermi or kepler")
	block := fs.Int("block", 0, "threads per block (required)")
	grid := fs.Int("grid", 1, "thread blocks per launch (used by -verify executions)")
	regCap := fs.Int("reg", 0, "allocate at exactly this register budget (skip search)")
	tlpFlag := fs.Int("tlp", 0, "thread-block TLP limit for spill planning")
	optTLP := fs.Int("opttlp", 0, "optimal TLP (default: occupancy at the default registers)")
	backendsFlag := fs.String("backend", "", "comma-separated optimization backends whose candidates compete (default: crat; see -passes); registered: "+strings.Join(backend.Names(), ","))
	coalesceFlag := fs.Bool("coalesce", false, "run conservative copy coalescing before coloring (useful on SSA-style nvcc PTX)")
	verify := fs.Bool("verify", false, "differentially validate the transformed kernel against the input on generated inputs; exit non-zero on divergence")
	verifyRuns := fs.Int("verify-runs", 0, "input sets for -verify (0 = oracle default)")
	verifySeed := fs.Int64("verify-seed", 0, "base input-generation seed for -verify")
	verbose := fs.Bool("v", false, "print the analysis and candidate table")
	listPasses := fs.Bool("passes", false, "list the pipeline passes in execution order and exit")
	verifyPasses := fs.Bool("verify-passes", false, "run the PTX verifier on the working kernel after every pipeline pass (fail fast naming the pass)")
	dumpAfter := fs.String("dump-after", "", "print the working kernel to stderr after every execution of the named pass")
	version := fs.Bool("version", false, "print build information and exit")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return err
		}
		return cli.UsageError{}
	}
	if *version {
		buildinfo.Print("cratc")
		return nil
	}

	backends := backend.SplitNames(*backendsFlag)
	if _, err := backend.Resolve(backends); err != nil {
		return err
	}

	if *listPasses {
		// Include every backend-registered pass: nil lists the full
		// registry, an explicit -backend narrows to that pipeline.
		for _, p := range core.PipelinePassesFor(backends) {
			fmt.Fprintf(stdout, "%-13s %s\n", p.Name, p.Desc)
		}
		return nil
	}

	if *in == "" || *block <= 0 {
		fmt.Fprintln(stderr, "cratc: -in and -block are required")
		fs.Usage()
		return cli.UsageError{}
	}
	arch, err := gpusim.ConfigByName(*archFlag)
	if err != nil {
		return cli.UsageError{Msg: err.Error()}
	}
	if *tlpFlag != 0 && *regCap <= 0 {
		return cli.UsageError{Msg: "-tlp sets the TLP of the pinned -reg point; without -reg the search chooses the TLP"}
	}
	backends = core.BackendList(backends)
	src, err := os.ReadFile(*in)
	if err != nil {
		return err
	}

	var dump func(pass string, k *ptx.Kernel)
	if *dumpAfter != "" {
		dump = func(pass string, k *ptx.Kernel) {
			if pass == *dumpAfter {
				fmt.Fprintf(stderr, "// after pass %s\n%s", pass, ptx.Print(k))
			}
		}
	}

	// -reg N pins the design point at N, which Compile also takes as the
	// stock compiler's budget; -tlp overrides the TLP the spills are
	// planned for (default: the occupancy at N).
	c, err := core.Compile(context.Background(), core.Request{
		PTX: string(src), Kernel: *kernelName, Block: *block, Grid: *grid,
		Options: core.Options{
			Arch: arch, OptTLP: *optTLP, Backends: backends, Coalesce: *coalesceFlag,
			Pin:               backend.Point{Reg: *regCap, TLP: *tlpFlag},
			VerifyEquivalence: *verify, VerifyRuns: *verifyRuns, VerifySeed: *verifySeed,
			VerifyEachPass: *verifyPasses, DumpAfter: dump,
		},
	})
	if err != nil {
		return fmt.Errorf("%s: %w", *in, err)
	}
	name := c.App.Name
	reg, tlp := c.Chosen.UsedRegs(), c.Chosen.TLP
	if *regCap > 0 {
		// The fixed-budget workflow reports the budget it was given and
		// the TLP the allocated kernel can actually reach.
		reg, tlp = *regCap, *tlpFlag
		if tlp == 0 {
			tlp = arch.Occupancy(c.Chosen.Alloc.UsedRegs, c.Analysis.ShmSize, *block)
		}
	}
	if *verbose {
		a := c.Analysis
		fmt.Fprintf(stderr, "analysis: MaxReg=%d MinReg=%d MaxTLP=%d OptTLP=%d ShmSize=%d\n",
			a.MaxReg, a.MinReg, a.MaxTLP, a.OptTLP, a.ShmSize)
		for _, cand := range c.Candidates {
			fmt.Fprintf(stderr, "candidate backend=%-10s reg=%-3d tlp=%d spills(local=%d shm=%d others=%d) tpsc=%.2f\n",
				cand.Backend, cand.Reg, cand.TLP, cand.Overhead.Locals(), cand.Overhead.Shareds(), cand.Overhead.AddrInsts, cand.TPSC)
		}
		fmt.Fprintf(stderr, "winner: backend=%s\n", c.Backend)
	}
	if *verify {
		if c.Degraded {
			return fmt.Errorf("DIVERGENCE %s: %v", name, c.Divergence)
		}
		fmt.Fprintf(stderr, "cratc: PASS %s (reg=%d tlp=%d)\n", name, reg, tlp)
	}

	text := fmt.Sprintf("// cratc: arch=%s block=%d kernel=%s reg=%d tlp=%d\n%s",
		arch.Name, *block, name, reg, tlp, c.PTX)
	if *out == "" {
		fmt.Fprint(stdout, text)
	} else if err := os.WriteFile(*out, []byte(text), 0o644); err != nil {
		return err
	}
	fmt.Fprintf(stderr, "cratc: chose reg=%d tlp=%d\n", reg, tlp)
	return nil
}
