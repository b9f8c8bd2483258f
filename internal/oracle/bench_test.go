package oracle_test

import (
	"fmt"
	"runtime"
	"testing"
	"time"

	"crat/internal/buildinfo"
	"crat/internal/core"
	"crat/internal/emu"
	"crat/internal/emu/ptxgen"
	"crat/internal/gpusim"
	"crat/internal/oracle"
	"crat/internal/ptx"
	"crat/internal/sem"
	"crat/internal/workloads"
)

// benchTable3 names the Table-3 kernels in the oracle benchmark set: a
// float-heavy, a stencil and a loop-heavy kernel, at the tests' two-block
// grid. The ptxgen seeds 100..109 fill out the set.
var benchTable3 = []string{"BLK", "HST", "SGM"}

// chainCase is one kernel of the benchmark set with the rewrite chain the
// pipeline would verify: its allocation at the tightest feasible budget
// and the spill-optimized result.
type chainCase struct {
	name                       string
	original, allocated, final *ptx.Kernel
	opts                       oracle.Options
	warpInsts                  int64 // executed by one CheckChain
}

func chainCorpus(b *testing.B) []chainCase {
	b.Helper()
	var out []chainCase
	for _, abbr := range benchTable3 {
		p, ok := workloads.ByAbbr(abbr)
		if !ok {
			b.Fatalf("no workload %s", abbr)
		}
		app := oracleApp(b, p)
		out = append(out, newChain(b, abbr, app, oracle.Options{Grid: app.Grid, Block: app.Block, Setup: app.Setup}))
	}
	for seed := int64(100); seed < 110; seed++ {
		out = append(out, genChain(b, seed, 2))
	}
	return out
}

// newChain builds app's rewrite chain at the tightest feasible budget.
func newChain(tb testing.TB, name string, app core.App, opts oracle.Options) chainCase {
	tb.Helper()
	arch := gpusim.FermiConfig()
	a, err := core.Analyze(app, arch)
	if err != nil {
		tb.Fatalf("%s: analyze: %v", name, err)
	}
	alloc, spill := buildVariants(tb, app, arch, a, core.FeasibleFloor(app.Kernel, a.MaxReg))
	c := chainCase{name: name, original: app.Kernel, allocated: alloc.Kernel, final: spill.Alloc.Kernel, opts: opts}
	c.warpInsts = chainWarpInsts(tb, c)
	return c
}

// genChain is the chain of the ptxgen kernel of the given seed at block 64,
// checked over grid blocks with that seed's inputs.
func genChain(tb testing.TB, seed int64, grid int) chainCase {
	k := ptxgen.Generate(ptxgen.Config{Seed: seed, Block: 64})
	app := core.App{Name: k.Name, Kernel: k, Block: 64, Grid: grid}
	return newChain(tb, fmt.Sprintf("gen%d", seed), app, oracle.Options{Grid: grid, Block: 64, Seed: seed})
}

// chainWarpInsts counts the warp instructions one CheckChain of c executes:
// every input set runs the original, the allocation and, when distinct,
// the final kernel.
func chainWarpInsts(tb testing.TB, c chainCase) int64 {
	runs := oracle.DefaultRuns
	if c.opts.Setup != nil {
		runs = 1
	}
	var n int64
	for run := 0; run < runs; run++ {
		for _, k := range []*ptx.Kernel{c.original, c.allocated, c.final} {
			if k == c.final && c.final == c.allocated {
				continue
			}
			var mem *sem.Memory
			var params []uint64
			if c.opts.Setup != nil {
				mem = sem.NewMemory()
				params = c.opts.Setup(mem)
			} else {
				mem, params = oracle.GenInputs(c.original, c.opts.Grid, c.opts.Block, c.opts.Seed+int64(run))
			}
			res, err := emu.Run(emu.Launch{Kernel: k, Grid: c.opts.Grid, Block: c.opts.Block, Params: params}, mem)
			if err != nil {
				tb.Fatalf("%s: %v", c.name, err)
			}
			n += res.WarpInsts
		}
	}
	return n
}

// BenchmarkCheckChain verifies every rewrite chain of the benchmark set per
// iteration — the oracle's work for one compile of each kernel — and
// reports emulated warp instructions per second.
func BenchmarkCheckChain(b *testing.B) {
	cases := chainCorpus(b)
	var perIter int64
	for _, c := range cases {
		perIter += c.warpInsts
	}
	b.ResetTimer()
	start := time.Now()
	for i := 0; i < b.N; i++ {
		for _, c := range cases {
			d, err := oracle.CheckChain(c.original, c.allocated, c.final, c.opts)
			if err != nil || d != nil {
				b.Fatalf("%s: divergence %v, error %v", c.name, d, err)
			}
		}
	}
	b.ReportMetric(float64(perIter)*float64(b.N)/time.Since(start).Seconds(), "warp-insts/s")
}

// checkChainAllocCeiling bounds the bytes one CheckChain allocates on a
// generated kernel at block 64, grid 1 (two input sets, three executions
// each): 69-71 KB measured, about 880 KB with 64KB pages and fresh block
// storage per execution. A race build's sync.Pool drops a random quarter
// of its puts, so executions there often allocate fresh block storage:
// 99-118 KB measured.
func checkChainAllocCeiling() uint64 {
	if buildinfo.RaceEnabled {
		return 192 << 10
	}
	return 80 << 10
}

// TestCheckChainAllocCeiling pins the oracle's allocation per check: an
// input image, and each execution's copy of it, should cost about the
// pages the kernel touches, and block storage is reused across executions.
func TestCheckChainAllocCeiling(t *testing.T) {
	c := genChain(t, 100, 1)
	check := func() {
		d, err := oracle.CheckChain(c.original, c.allocated, c.final, c.opts)
		if err != nil || d != nil {
			t.Fatalf("%s: divergence %v, error %v", c.name, d, err)
		}
	}
	check() // warm the per-kernel program cache and the block pool
	const runs = 20
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		check()
	}
	runtime.ReadMemStats(&after)
	perCheck := (after.TotalAlloc - before.TotalAlloc) / runs
	t.Logf("%s: %d B, %d allocs per CheckChain", c.name, perCheck, (after.Mallocs-before.Mallocs)/runs)
	if limit := checkChainAllocCeiling(); perCheck > limit {
		t.Errorf("%s: CheckChain allocates %d B, ceiling %d B", c.name, perCheck, limit)
	}
}
