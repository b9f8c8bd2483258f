package gpusim_test

import (
	"runtime"
	"testing"

	"crat/internal/gpusim"
	"crat/internal/workloads"
)

// TestHotLoopAllocs pins the execution hot path's allocation behaviour:
// once a launch is set up, stepping instructions must not allocate. Block
// contexts are arena-backed and recycled, lowered programs are cached per
// kernel, and the tracing-off path carries no formatting, so steady-state
// allocations are bounded by the launch footprint (pages, block arenas) —
// not by the instruction count. A per-instruction allocation anywhere in
// execute/issue would push the ratio past 1 and fail loudly.
func TestHotLoopAllocs(t *testing.T) {
	arch := gpusim.FermiConfig()
	p, _ := workloads.ByAbbr("STM")
	app := p.App()

	build := func() (*gpusim.Simulator, *gpusim.Memory) {
		mem := gpusim.NewMemory()
		params := app.Setup(mem)
		sim, err := gpusim.NewSimulator(arch, mem, gpusim.Launch{
			Kernel: app.Kernel, Grid: app.Grid, Block: app.Block, Params: params,
		})
		if err != nil {
			t.Fatalf("NewSimulator: %v", err)
		}
		return sim, mem
	}

	// Warm the per-kernel analysis cache so the measured run pays only its
	// own costs.
	sim, _ := build()
	if _, err := sim.Run(); err != nil {
		t.Fatalf("warm-up run: %v", err)
	}

	sim, _ = build()
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	stats, err := sim.Run()
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatalf("measured run: %v", err)
	}
	if stats.WarpInsts < 10_000 {
		t.Fatalf("workload too small to measure: %d warp-insts", stats.WarpInsts)
	}
	allocs := int64(after.Mallocs - before.Mallocs)
	ratio := float64(allocs) / float64(stats.WarpInsts)
	t.Logf("%d allocs over %d warp-insts (%.5f allocs/warp-inst)", allocs, stats.WarpInsts, ratio)
	if ratio > 0.01 {
		t.Errorf("hot loop allocates: %.5f allocs/warp-inst (limit 0.01) — a per-instruction allocation crept into execute/issue", ratio)
	}
}
