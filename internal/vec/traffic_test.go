package vec_test

import (
	"maps"
	"slices"
	"testing"

	"crat/internal/core"
	"crat/internal/emu/ptxgen"
	"crat/internal/gpusim"
	"crat/internal/ptx"
	"crat/internal/regalloc"
	"crat/internal/vec"
	"crat/internal/workloads"
)

// TestWorkloadTrafficIsSpecialized ties the hand-written kernels to the
// traffic the benchmark workloads run: every Table-3 kernel before and
// after allocation at its default budget (the rewrite adds mov.u64 and
// spill address code) and at its tightest feasible budget (spill code),
// and the ptxgen kernels of the service workloads. No ALU op of any of
// them may lower to the per-lane sem fallback.
func TestWorkloadTrafficIsSpecialized(t *testing.T) {
	arch := gpusim.FermiConfig()
	var kernels []*ptx.Kernel
	for _, p := range workloads.All() {
		app := p.App()
		a, err := core.Analyze(app, arch)
		if err != nil {
			t.Fatalf("%s: %v", p.Abbr, err)
		}
		kernels = append(kernels, app.Kernel)
		for _, regs := range []int{a.DefaultReg, core.FeasibleFloor(app.Kernel, a.MaxReg)} {
			res, err := regalloc.Allocate(app.Kernel, regalloc.Options{Regs: regs})
			if err != nil {
				t.Fatalf("%s at %d registers: %v", p.Abbr, regs, err)
			}
			kernels = append(kernels, res.Kernel)
		}
	}
	for seed := int64(1); seed <= 200; seed++ {
		kernels = append(kernels, ptxgen.Generate(ptxgen.Config{Seed: seed, Block: 128}))
	}

	generic := map[string][]string{} // op.type -> kernels that run it
	for _, k := range kernels {
		prog, err := vec.ProgramFor(k)
		if err != nil {
			t.Fatalf("%s: %v", k.Name, err)
		}
		for pc, op := range prog.Ops {
			if in := &k.Insts[pc]; op.Class == vec.ClassALU && vec.LowersGeneric(in) {
				name := in.Op.String() + "." + in.Type.String()
				if ks := generic[name]; len(ks) == 0 || ks[len(ks)-1] != k.Name {
					generic[name] = append(ks, k.Name)
				}
			}
		}
	}
	for _, name := range slices.Sorted(maps.Keys(generic)) {
		ks := generic[name]
		t.Errorf("%s lowers to the per-lane sem fallback in %d kernels, %s first", name, len(ks), ks[0])
	}
}
