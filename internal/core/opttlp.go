package core

import (
	"context"
	"fmt"

	"crat/internal/gpusim"
	"crat/internal/pool"
	"crat/internal/ptx"
	"crat/internal/regalloc"
)

// SimulateKernelCtx runs an explicit kernel variant of the app (e.g. one
// allocated at a particular register budget) on the simulator: memory is
// prepared by app.Setup, regsPerThread feeds the occupancy calculation and
// tlpLimit throttles resident blocks (0 = hardware maximum). Cancellation or
// an expired deadline on ctx aborts the cycle loop with a structured gpusim
// fault.
func SimulateKernelCtx(ctx context.Context, app App, arch gpusim.Config, k *ptx.Kernel, regsPerThread, tlpLimit int) (gpusim.Stats, error) {
	mem := gpusim.NewMemory()
	params := app.Setup(mem)
	sim, err := gpusim.NewSimulator(arch, mem, gpusim.Launch{
		Kernel:        k,
		Grid:          app.Grid,
		Block:         app.Block,
		Params:        params,
		TLPLimit:      tlpLimit,
		RegsPerThread: regsPerThread,
	})
	if err != nil {
		return gpusim.Stats{}, fmt.Errorf("core: %s: %w", app.Name, err)
	}
	return sim.RunCtx(ctx)
}

// Simulate runs one launch of an app's kernel variant. SimulateKernelCtx
// is the direct one; the experiment harness passes a memoized,
// checkpointed one.
type Simulate func(ctx context.Context, app App, arch gpusim.Config, k *ptx.Kernel, regsPerThread, tlpLimit int) (gpusim.Stats, error)

// ProfileOptTLPNCtx determines the optimal TLP by exhaustive profiling
// (paper §4.1 / §7.2 "OptTLP is determined offline by exhaustively testing
// all the possible TLPs"): the kernel is allocated at the default register
// count and simulated at every TLP in [1, MaxTLP]; the TLP with the fewest
// cycles wins. The pipeline does not call it: callers pass the result as
// Options.OptTLP.
//
// Every simulation goes through sim, fanned out across up to `workers`
// goroutines (0 = one per CPU). Each TLP point is an independent simulation over its own
// Memory, so the fan-out is embarrassingly parallel; results are reduced
// in ascending TLP order afterwards, which makes the winner — and on
// failure, the reported error (lowest failing TLP) — identical to the
// serial sweep. A canceled or timed-out sweep returns the first structured
// simulator fault (lowest TLP first), or the bare context error when
// cancellation landed between simulations.
func ProfileOptTLPNCtx(ctx context.Context, app App, arch gpusim.Config, a *Analysis, workers int, sim Simulate) (int, []gpusim.Stats, error) {
	alloc, err := regalloc.Allocate(app.Kernel, regalloc.Options{Regs: a.DefaultReg})
	if err != nil {
		return 0, nil, fmt.Errorf("core: default allocation of %s: %w", app.Name, err)
	}
	all := make([]gpusim.Stats, a.MaxTLP)
	errs := make([]error, a.MaxTLP)
	poolErr := pool.RunCtx(ctx, workers, a.MaxTLP, func(i int) {
		all[i], errs[i] = sim(ctx, app, arch, alloc.Kernel, alloc.UsedRegs, i+1)
	})
	for _, e := range errs {
		if e != nil {
			return 0, nil, e
		}
	}
	if poolErr != nil {
		return 0, nil, poolErr
	}
	best, bestCycles := 0, int64(0)
	for i, st := range all {
		if best == 0 || st.Cycles < bestCycles {
			best, bestCycles = i+1, st.Cycles
		}
	}
	return best, all, nil
}

// StaticModelInput feeds the static OptTLP estimator: the L1 hit ratio and
// per-block footprint, measured empirically (paper §4.1: "we empirically
// measure the cache hit ratio for all the applications"). MeasureStaticInputs
// obtains both from a single cheap TLP=1 run.
type StaticModelInput struct {
	HitRatioAtOne  float64
	BlockFootprint float64 // bytes of L1 footprint per block (cold misses)
}

// MeasureStaticInputs runs the app once at TLP=1 through sim under ctx and
// derives the model inputs. This is the only dynamic information
// CRAT-static consumes.
func MeasureStaticInputs(ctx context.Context, app App, arch gpusim.Config, a *Analysis, sim Simulate) (StaticModelInput, error) {
	alloc, err := regalloc.Allocate(app.Kernel, regalloc.Options{Regs: a.DefaultReg})
	if err != nil {
		return StaticModelInput{}, err
	}
	st, err := sim(ctx, app, arch, alloc.Kernel, alloc.UsedRegs, 1)
	if err != nil {
		return StaticModelInput{}, err
	}
	in := StaticModelInput{HitRatioAtOne: st.L1HitRate()}
	if st.BlocksCompleted > 0 {
		// Distinct lines per block approximate the per-block footprint.
		in.BlockFootprint = float64(st.L1DistinctLines) / float64(st.BlocksCompleted) * float64(arch.L1.LineBytes)
	}
	return in, nil
}

// hitRatioAt models cache contention: the TLP=1 hit ratio degrades once the
// aggregate block footprints exceed the L1 capacity.
func (in StaticModelInput) hitRatioAt(arch gpusim.Config, tlp int) float64 {
	agg := in.BlockFootprint * float64(tlp)
	cap32 := float64(arch.L1.SizeBytes)
	if agg <= cap32 || agg == 0 {
		return in.HitRatioAtOne
	}
	return in.HitRatioAtOne * cap32 / agg
}

// EstimateOptTLP statically estimates the optimal TLP (paper §4.1 /
// Figure 10). The kernel's computation/memory segmentation feeds an
// analytical throughput model in the style the paper builds on (Hong &
// Kim's computation/memory-period overlap [11], extended with memory
// bandwidth and cache contention): for each candidate TLP n the model
// takes the worst of three envelopes —
//
//   - issue:    n blocks' warp instructions through the schedulers,
//   - bandwidth: the missing fraction of memory accesses through DRAM,
//     with the hit ratio degraded by the aggregate footprint (contention),
//   - latency:  one warp's dependent critical path (unhidable floor),
//
// and returns the n maximizing blocks-per-cycle throughput. Only the
// TLP=1-measured hit ratio and per-block footprint are consumed
// (MeasureStaticInputs); everything else is static code analysis.
func EstimateOptTLP(a *Analysis, arch gpusim.Config, in StaticModelInput) int {
	if a.MaxTLP <= 1 {
		return 1
	}
	compW, memW, memSegW := 0.0, 0.0, 0.0
	for _, seg := range a.Segments {
		if seg.Kind == SegMemory {
			memW += seg.Latency
			// One latency per segment occurrence: consecutive loads in a
			// segment overlap (paper Figure 10 charges latency per
			// segment, not per access). Latency/Insts recovers the
			// segment's loop-weighted occurrence count.
			memSegW += seg.Latency / float64(seg.Insts)
		} else {
			compW += seg.Latency
		}
	}
	warps := float64((a.BlockSize + arch.WarpSize - 1) / arch.WarpSize)
	missLat := float64(arch.L2Lat + arch.DRAMLat)
	transfer := float64(arch.L1.LineBytes) / arch.DRAMBytesPerCycle
	// Effective on-chip capacity before contention bites: the L1 plus half
	// the L2 slice (which keeps absorbing part of the L1 spill traffic).
	capEff := float64(arch.L1.SizeBytes) + float64(arch.L2.SizeBytes)/2

	best, bestThr := 1, 0.0
	thrs := make([]float64, a.MaxTLP+1)
	for n := 1; n <= a.MaxTLP; n++ {
		h := in.HitRatioAtOne
		if agg := in.BlockFootprint * float64(n); agg > capEff && agg > 0 {
			h *= capEff / agg
		}
		avgLat := h*float64(arch.L1HitLat) + (1-h)*missLat
		issue := float64(n) * (compW + memW) * warps / float64(arch.NumSchedulers)
		bandwidth := float64(n) * memW * warps * (1 - h) * transfer
		latency := compW + memSegW*avgLat
		t := issue
		if bandwidth > t {
			t = bandwidth
		}
		if latency > t {
			t = latency
		}
		thrs[n] = float64(n) / t
		if thrs[n] > bestThr {
			best, bestThr = n, thrs[n]
		}
	}
	// Among near-ties (within 5% of the best), prefer the higher TLP: when
	// the model cannot separate them, extra parallelism is the safer bet.
	for n := a.MaxTLP; n > best; n-- {
		if thrs[n] >= 0.95*bestThr {
			return n
		}
	}
	return best
}

// InvolvedBlocks mimics GTO scheduling over the segment sequence until the
// first block finishes, returning how many blocks became involved (paper
// Figure 10b): the parallelism needed to keep the core busy. It complements
// EstimateOptTLP's throughput view.
func InvolvedBlocks(a *Analysis, arch gpusim.Config, in StaticModelInput) int {
	n := a.MaxTLP
	if n <= 1 {
		return 1
	}
	type blk struct {
		seg      int
		ready    float64
		involved bool
	}
	blocks := make([]blk, n)
	coreFree := 0.0
	memFree := 0.0
	h := in.HitRatioAtOne
	if agg := in.BlockFootprint * float64(n); agg > float64(arch.L1.SizeBytes) && agg > 0 {
		h *= float64(arch.L1.SizeBytes) / agg
	}
	missLat := float64(arch.L2Lat + arch.DRAMLat)
	avgLat := h*float64(arch.L1HitLat) + (1-h)*missLat

	for blocks[0].seg < len(a.Segments) {
		// GTO: the lowest-indexed ready block gets the core.
		pick := -1
		for i := range blocks {
			if blocks[i].seg >= len(a.Segments) {
				continue
			}
			if blocks[i].ready <= coreFree {
				pick = i
				break
			}
			if pick == -1 || blocks[i].ready < blocks[pick].ready {
				pick = i
			}
		}
		if pick == -1 {
			break
		}
		b := &blocks[pick]
		b.involved = true
		start := b.ready
		if coreFree > start {
			start = coreFree
		}
		seg := a.Segments[b.seg]
		if seg.Kind == SegCompute {
			coreFree = start + seg.Latency
			b.ready = coreFree
		} else {
			// Issue briefly, then wait out the contention-adjusted latency
			// plus bandwidth queueing for the missing fraction.
			coreFree = start + seg.Latency
			misses := seg.Latency * (1 - h) * float64(a.BlockSize)
			transfer := misses * float64(arch.L1.LineBytes) / 8 / arch.DRAMBytesPerCycle
			avail := start + avgLat
			if memFree > start {
				avail = memFree + avgLat
			}
			memFree = avail - avgLat + transfer
			b.ready = avail
		}
		b.seg++
	}
	involved := 0
	for i := range blocks {
		if blocks[i].involved {
			involved++
		}
	}
	if involved < 1 {
		involved = 1
	}
	return involved
}
