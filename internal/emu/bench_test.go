package emu_test

import (
	"fmt"
	"testing"
	"time"

	"crat/internal/core"
	"crat/internal/emu"
	"crat/internal/emu/ptxgen"
	"crat/internal/gpusim"
	"crat/internal/oracle"
	"crat/internal/regalloc"
	"crat/internal/sem"
	"crat/internal/workloads"
)

// runCase is one launch of the benchmark set: a kernel's allocation at its
// tightest feasible budget, on a prepared input image.
type runCase struct {
	name   string
	launch emu.Launch
	input  *sem.Memory
}

// runCorpus builds the set BenchmarkCheckChain in internal/oracle verifies:
// the Table-3 kernels BLK, HST and SGM at a two-block grid and ptxgen seeds
// 100..109.
func runCorpus(b *testing.B) []runCase {
	b.Helper()
	arch := gpusim.FermiConfig()
	var out []runCase
	add := func(name string, app core.App, input *sem.Memory, params []uint64) {
		a, err := core.Analyze(app, arch)
		if err != nil {
			b.Fatalf("%s: analyze: %v", name, err)
		}
		alloc, err := regalloc.Allocate(app.Kernel, regalloc.Options{Regs: core.FeasibleFloor(app.Kernel, a.MaxReg)})
		if err != nil {
			b.Fatalf("%s: allocate: %v", name, err)
		}
		out = append(out, runCase{name: name, input: input,
			launch: emu.Launch{Kernel: alloc.Kernel, Grid: app.Grid, Block: app.Block, Params: params}})
	}
	for _, abbr := range []string{"BLK", "HST", "SGM"} {
		p, ok := workloads.ByAbbr(abbr)
		if !ok {
			b.Fatalf("no workload %s", abbr)
		}
		app := p.AppWithInput(workloads.Input{Name: "oracle", GridScale: float64(min(2, p.Grid)) / float64(p.Grid), DataScale: 1})
		mem := sem.NewMemory()
		add(abbr, app, mem, app.Setup(mem))
	}
	for seed := int64(100); seed < 110; seed++ {
		k := ptxgen.Generate(ptxgen.Config{Seed: seed, Block: 64})
		app := core.App{Name: k.Name, Kernel: k, Block: 64, Grid: 2}
		mem, params := oracle.GenInputs(k, 2, 64, seed)
		add(fmt.Sprintf("gen%d", seed), app, mem, params)
	}
	return out
}

// BenchmarkEmuRun executes every launch of the benchmark set per iteration,
// each on a fresh copy of its input, and reports warp instructions per
// second.
func BenchmarkEmuRun(b *testing.B) {
	cases := runCorpus(b)
	var warpInsts int64
	b.ResetTimer()
	start := time.Now()
	for i := 0; i < b.N; i++ {
		for _, c := range cases {
			res, err := emu.Run(c.launch, c.input.Clone())
			if err != nil {
				b.Fatalf("%s: %v", c.name, err)
			}
			warpInsts += res.WarpInsts
		}
	}
	b.ReportMetric(float64(warpInsts)/time.Since(start).Seconds(), "warp-insts/s")
}
