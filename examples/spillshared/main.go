// Spillshared: demonstrate the spilling optimization (paper Algorithm 1).
// A register-hungry kernel is allocated under a tight budget, then its
// spill stack is split into typed sub-stacks and the knapsack decides which
// to move into spare shared memory. The demo compares local-only spilling
// with the optimized placement, both functionally and in cycles.
//
//	go run ./examples/spillshared
package main

import (
	"context"
	"fmt"
	"log"

	"crat/internal/backend"
	"crat/internal/core"
	"crat/internal/gpusim"
	"crat/internal/ptx"
	"crat/internal/regalloc"
	"crat/internal/spillopt"
	"crat/internal/workloads"
)

func main() {
	arch := gpusim.FermiConfig()
	p, _ := workloads.ByAbbr("FDTD")
	app := p.App()

	a, err := core.Analyze(app, arch)
	if err != nil {
		log.Fatal(err)
	}
	// Allocate well below MaxReg so spills remain.
	budget := 40
	tlp := a.TLPAt(arch, budget)
	allocOpts := regalloc.Options{Regs: budget}
	alloc, err := regalloc.Allocate(app.Kernel, allocOpts)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("kernel %s: MaxReg=%d, allocated at %d regs -> %d spilled variables (%d bytes/thread)\n",
		app.Name, a.MaxReg, budget, len(alloc.Spills), alloc.SpillStackBytes)
	o := alloc.Kernel.SpillOverhead()
	fmt.Printf("local-only spilling: %d local spill insts, %d addressing insts\n", o.Locals(), o.AddrInsts)

	// Algorithm 1: split by type, estimate gains, solve the knapsack.
	spare := backend.SpareShm(arch, a.ShmSize, tlp)
	res, err := spillopt.Optimize(alloc, allocOpts, spillopt.Options{
		SpareShmBytes: spare,
		BlockSize:     app.Block,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nspare shared memory at TLP=%d: %d bytes/block\n", tlp, spare)
	for _, g := range res.Groups {
		where := "stays in local memory"
		if g.InShared {
			where = "moved to shared memory"
		}
		fmt.Printf("  sub-stack %-4s: %2d variables, %4d B/thread, gain %6.0f -> %s\n",
			g.Key, len(g.Slots), g.PerThread, g.Gain, where)
	}
	oo := res.Overhead
	fmt.Printf("after optimization: %d local + %d shared spill insts (moved gain %.0f of %.0f)\n",
		oo.Locals(), oo.Shareds(), res.MovedGain, res.TotalGain)

	// The transformed kernel is plain PTX: print the declarations.
	fmt.Println("\nshared sub-stack declarations in the transformed PTX:")
	for _, arr := range res.Alloc.Kernel.Arrays {
		if arr.Space == ptx.SpaceShared {
			fmt.Printf("  .shared .align %d .b8 %s[%d];\n", arr.Align, arr.Name, arr.Size)
		}
	}

	// Run both variants: identical results, fewer cycles.
	run := func(k *ptx.Kernel, regs int) gpusim.Stats {
		st, err := core.SimulateKernelCtx(context.Background(), app, arch, k, regs, tlp)
		if err != nil {
			log.Fatal(err)
		}
		return st
	}
	local := run(alloc.Kernel, alloc.UsedRegs)
	shared := run(res.Alloc.Kernel, res.Alloc.UsedRegs)
	fmt.Printf("\nlocal-only : %9d cycles, %7d local ops\n", local.Cycles, local.LocalOps())
	fmt.Printf("optimized  : %9d cycles, %7d local ops, %d shared spill ops\n",
		shared.Cycles, shared.LocalOps(), shared.SpillSharedOps)
	fmt.Printf("speedup    : %.3fx\n", float64(local.Cycles)/float64(shared.Cycles))
}
