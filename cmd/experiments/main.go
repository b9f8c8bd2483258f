// Command experiments regenerates the tables and figures of the CRAT paper
// (MICRO 2015) evaluation on the simulated GPU.
//
// Usage:
//
//	experiments -run all
//	experiments -run fig13,fig14,fig15
//	experiments -run all -j 4
//	experiments -run all -timeout 10m -checkpoint ckpt
//	experiments -run all -checkpoint ckpt -resume
//	experiments -list
//
// A run is safely interruptible: Ctrl-C (or -timeout expiring) stops
// dispatching new simulations, drains the workers, flushes the checkpoint
// journal, and reports what survived. A later invocation with -checkpoint
// and -resume picks up from the persisted results without re-simulating
// them; the output is byte-identical to an uninterrupted run.
//
// See DESIGN.md for the experiment index and EXPERIMENTS.md for the
// paper-vs-measured record.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"time"

	"crat/internal/backend"
	"crat/internal/buildinfo"
	"crat/internal/harness"
	"crat/internal/pool"
)

func main() {
	runFlag := flag.String("run", "", "comma-separated experiment ids, or 'all'")
	list := flag.Bool("list", false, "list available experiments")
	workers := flag.Int("j", pool.DefaultWorkers(),
		"max parallel simulations (1 = serial; output is identical either way)")
	timeout := flag.Duration("timeout", 0,
		"wall-clock budget for the whole run (0 = none); on expiry in-flight simulations abort with a deadline fault")
	ckptDir := flag.String("checkpoint", "",
		"directory for the crash-safe result journal (empty = no checkpointing)")
	resume := flag.Bool("resume", false,
		"load results already persisted in -checkpoint instead of starting fresh")
	strict := flag.Bool("strict", false,
		"exit 1 if any fault was captured (default: degrade to ERROR rows and exit 0)")
	backends := flag.String("backends", "",
		"comma-separated optimization backends for the head-to-head experiment (empty = every registered backend)")
	passTimes := flag.Bool("pass-times", false,
		"after the run, print the per-pass wall-time and IR-delta table (opt-in: kept out of the golden output)")
	version := flag.Bool("version", false, "print build information and exit")
	flag.Parse()
	if *version {
		buildinfo.Print("experiments")
		return
	}

	if *list || *runFlag == "" {
		fmt.Println("available experiments:")
		for _, e := range harness.Experiments() {
			arch := e.Arch
			if arch == "" {
				arch = "fermi"
			}
			fmt.Printf("  %-14s %-8s %s\n", e.ID, arch, e.Desc)
		}
		if *runFlag == "" {
			fmt.Println("\nselect with -run <ids> or -run all")
		}
		return
	}
	if *resume && *ckptDir == "" {
		fmt.Fprintln(os.Stderr, "-resume requires -checkpoint DIR")
		os.Exit(2)
	}

	// SIGINT cancels the run context: workers drain, completed results are
	// already journaled, and the survival report below still prints.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}

	start := time.Now()
	ids := strings.Split(*runFlag, ",")
	for i := range ids {
		ids[i] = strings.TrimSpace(ids[i])
	}
	opts := harness.RunOptions{
		Workers:       *workers,
		Strict:        *strict,
		CheckpointDir: *ckptDir,
		Resume:        *resume,
		Backends:      backend.SplitNames(*backends),
	}
	rep, err := harness.RunExperimentsCtx(ctx, ids, opts, os.Stdout)
	if *passTimes {
		harness.PassTimingTable().Render(os.Stdout)
	}
	if rep != nil {
		// On stderr, so the rendered tables (the golden output) stay as
		// they are.
		fmt.Fprintf(os.Stderr, "simulations: %d run, %d memo hits, %d checkpoint hits\n",
			rep.SimRuns, rep.SimMemoHits, rep.CkptHits)
	}
	if rep != nil && *ckptDir != "" {
		fmt.Printf("checkpoint: %d result(s) persisted in %s (%d inherited via -resume, %d served from checkpoint)\n",
			rep.Persisted, *ckptDir, rep.Loaded, rep.CkptHits)
	}
	if rep != nil && ctx.Err() != nil {
		// Interrupted (Ctrl-C) or out of budget (-timeout): say what survived.
		total := len(harness.Experiments())
		if ids[0] != "all" {
			total = len(ids)
		}
		done := total - len(rep.Failed)
		fmt.Printf("interrupted (%v): %d/%d experiment(s) completed cleanly, %d fault(s) captured\n",
			ctx.Err(), done, total, rep.Faults)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	if ctx.Err() != nil {
		return // an interrupted run is not done
	}
	fmt.Printf("done in %s\n", time.Since(start).Round(time.Second))
}
