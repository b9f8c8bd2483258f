package regalloc_test

import (
	"fmt"
	"testing"

	"crat/internal/emu/ptxgen"
	"crat/internal/passes"
	"crat/internal/ptx"
	"crat/internal/regalloc"
	"crat/internal/workloads"
)

// maxRegByAllocate is MaxReg as the full allocator defines it: the
// smallest budget, searched upward from the unconstrained allocation's
// slot count, at which Allocate returns a spill-free result.
// TestMaxRegMatchesAllocate holds the color-round MaxReg to it.
func maxRegByAllocate(k *ptx.Kernel) (int, error) {
	r, err := regalloc.Allocate(k, regalloc.Options{Regs: 4096})
	if err != nil {
		return 0, err
	}
	for budget := r.UsedRegs; ; budget++ {
		res, err := regalloc.Allocate(k, regalloc.Options{Regs: budget})
		if err == nil && len(res.Spills) == 0 {
			return res.UsedRegs, nil
		}
		if budget > r.UsedRegs+64 {
			return 0, fmt.Errorf("regalloc: no spill-free budget near %d", r.UsedRegs)
		}
	}
}

// maxRegCorpus is the 22 Table-3 workloads plus ptxgen seeds [0, 300) at
// block 128.
func maxRegCorpus() map[string]*ptx.Kernel {
	ks := make(map[string]*ptx.Kernel)
	for _, p := range workloads.All() {
		ks[p.Abbr] = p.App().Kernel
	}
	for seed := int64(0); seed < 300; seed++ {
		ks[fmt.Sprintf("ptxgen/%d", seed)] = ptxgen.Generate(ptxgen.Config{Seed: seed, Block: 128})
	}
	return ks
}

func TestMaxRegMatchesAllocate(t *testing.T) {
	corpus := maxRegCorpus()
	if len(corpus) != 322 {
		t.Fatalf("corpus holds %d kernels, want 322", len(corpus))
	}
	for name, k := range corpus {
		want, wantErr := maxRegByAllocate(k)
		got, err := regalloc.MaxReg(k)
		if (err != nil) != (wantErr != nil) || got != want {
			t.Errorf("%s: MaxReg = %d, %v; Allocate-based MaxReg = %d, %v", name, got, err, want, wantErr)
		}
	}
}

// TestMaxRegBuildsNoPhysicalKernel counts the passes MaxReg runs: color
// rounds only, never a spill insertion or a physical rewrite.
func TestMaxRegBuildsNoPhysicalKernel(t *testing.T) {
	runs := make(map[string]int)
	passes.SetGlobalWrap(func(p passes.Pass) passes.Pass {
		runs[p.Name()]++
		return p
	})
	defer passes.SetGlobalWrap(nil)
	for _, p := range workloads.All() {
		clear(runs)
		if _, err := regalloc.MaxReg(p.App().Kernel); err != nil {
			t.Fatalf("%s: MaxReg: %v", p.Abbr, err)
		}
		if runs["color"] < 2 || len(runs) != 1 {
			t.Errorf("%s: MaxReg ran passes %v, want color rounds only (at least 2)", p.Abbr, runs)
		}
	}
}
