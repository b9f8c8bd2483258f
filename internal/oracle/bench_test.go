package oracle_test

import (
	"fmt"
	"testing"
	"time"

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
	arch := gpusim.FermiConfig()
	var out []chainCase
	add := func(name string, app core.App, opts oracle.Options) {
		a, err := core.Analyze(app, arch)
		if err != nil {
			b.Fatalf("%s: analyze: %v", name, err)
		}
		alloc, spill := buildVariants(b, app, arch, a, core.FeasibleFloor(app.Kernel, a.MaxReg))
		c := chainCase{name: name, original: app.Kernel, allocated: alloc.Kernel, final: spill.Alloc.Kernel, opts: opts}
		c.warpInsts = chainWarpInsts(b, c)
		out = append(out, c)
	}
	for _, abbr := range benchTable3 {
		p, ok := workloads.ByAbbr(abbr)
		if !ok {
			b.Fatalf("no workload %s", abbr)
		}
		app := oracleApp(b, p)
		add(abbr, app, oracle.Options{Grid: app.Grid, Block: app.Block, Setup: app.Setup})
	}
	for seed := int64(100); seed < 110; seed++ {
		k := ptxgen.Generate(ptxgen.Config{Seed: seed, Block: 64})
		app := core.App{Name: k.Name, Kernel: k, Block: 64, Grid: 2}
		add(fmt.Sprintf("gen%d", seed), app, oracle.Options{Grid: 2, Block: 64, Seed: seed})
	}
	return out
}

// chainWarpInsts counts the warp instructions one CheckChain of c executes:
// every input set runs the original, the allocation and, when distinct,
// the final kernel.
func chainWarpInsts(b *testing.B, c chainCase) int64 {
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
				b.Fatalf("%s: %v", c.name, err)
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
