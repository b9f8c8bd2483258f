package core_test

import (
	"maps"
	"testing"

	"crat/internal/core"
	"crat/internal/emu/ptxgen"
	"crat/internal/gpusim"
	"crat/internal/regalloc"
	"crat/internal/workloads"
)

// floorCorpus is the 22 Table-3 workloads plus ptxgen seeds [100, seedEnd)
// at block 128.
func floorCorpus(seedEnd int64) []core.App {
	var apps []core.App
	for _, p := range workloads.All() {
		apps = append(apps, p.App())
	}
	for seed := int64(100); seed < seedEnd; seed++ {
		k := ptxgen.Generate(ptxgen.Config{Seed: seed, Block: 128})
		apps = append(apps, core.App{Name: k.Name, Kernel: k, Block: 128, Grid: 2})
	}
	return apps
}

// exactFloorStaircase is Staircase computed from the exact allocator floor,
// as Analyze did before it computed only the clamp.
func exactFloorStaircase(a *core.Analysis, floor int, arch gpusim.Config) map[int]int {
	lo := max(floor, a.MinReg, 4)
	hi := a.MaxReg
	if cap := arch.MaxRegPerThread; cap > 0 && hi > cap {
		hi = cap
	}
	lo = min(lo, hi)
	out := make(map[int]int)
	for t := 1; t <= a.TLPAt(arch, lo); t++ {
		best := -1
		for reg := lo; reg <= hi; reg++ {
			if a.TLPAt(arch, reg) >= t {
				best = reg
			}
		}
		if best > 0 {
			out[t] = best
		}
	}
	return out
}

// TestRegFloorMatchesExactFloor checks that the clamp Analyze computes
// equals the clamp of the exact floor, and so yields the same staircase.
// Feasibility that is not monotone in the budget is the one way they could
// differ.
func TestRegFloorMatchesExactFloor(t *testing.T) {
	apps := floorCorpus(400)
	for _, arch := range []gpusim.Config{gpusim.FermiConfig(), gpusim.KeplerConfig()} {
		for _, app := range apps {
			a, err := core.Analyze(app, arch)
			if err != nil {
				t.Fatalf("%s/%s: %v", arch.Name, app.Name, err)
			}
			floor := core.FeasibleFloor(app.Kernel, a.MaxReg)
			if want := max(floor, a.MinReg, 4); a.RegFloor != want {
				t.Errorf("%s/%s: RegFloor = %d, want max(FeasibleFloor %d, MinReg %d, 4) = %d",
					arch.Name, app.Name, a.RegFloor, floor, a.MinReg, want)
			}
			if got, want := a.Staircase(arch), exactFloorStaircase(a, floor, arch); !maps.Equal(got, want) {
				t.Errorf("%s/%s: staircase %v, want %v", arch.Name, app.Name, got, want)
			}
		}
	}
}

var analysisSink *core.Analysis

// BenchmarkAnalyze times Analyze over the 22 workloads and ptxgen seeds
// 100-139 at block 128 on Fermi. One op is one pass over all 62 kernels;
// probes/op counts its feasibility Allocate calls.
func BenchmarkAnalyze(b *testing.B) {
	arch := gpusim.FermiConfig()
	apps := floorCorpus(140)
	probes := core.RecordProbes(b, regalloc.Allocate)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, app := range apps {
			a, err := core.Analyze(app, arch)
			if err != nil {
				b.Fatalf("%s: %v", app.Name, err)
			}
			analysisSink = a
		}
	}
	b.ReportMetric(float64(len(probes()))/float64(b.N), "probes/op")
}
