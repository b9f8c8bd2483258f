package core_test

import (
	"context"
	"fmt"
	"slices"
	"testing"

	"crat/internal/core"
	"crat/internal/emu/ptxgen"
	"crat/internal/gpusim"
	"crat/internal/passes"
	"crat/internal/ptx"
	"crat/internal/regalloc"
)

// TestCompileAllocatesOnce pins the work a cold compile does once: the
// backends share one allocation per distinct (point, options), so with no
// demotion each one costs a single phys-rewrite run (plus one per crat
// candidate whose spill stacks moved to shared memory and were
// reallocated), and every shared allocation prints exactly as a fresh
// regalloc.Allocate at its point.
func TestCompileAllocatesOnce(t *testing.T) {
	rewrites := make(map[regalloc.Options]int)
	passes.SetGlobalWrap(func(p passes.Pass) passes.Pass {
		pr, ok := passes.Inner(p).(interface{ AllocOptions() regalloc.Options })
		if !ok {
			return p
		}
		return passes.After(p, func(*ptx.Kernel, *passes.AnalysisManager) error {
			rewrites[pr.AllocOptions()]++
			return nil
		})
	})
	defer passes.SetGlobalWrap(nil)

	checked, shared := 0, 0
	for _, backends := range [][]string{{"crat", "regdem"}, {"crat-local", "regdem", "crat"}} {
		for seed := int64(1); seed <= 100; seed++ {
			name := fmt.Sprintf("%v seed %d", backends, seed)
			text := ptx.Print(ptxgen.Generate(ptxgen.Config{Seed: seed, Block: 64}))
			clear(rewrites)
			c, err := core.Compile(context.Background(), core.Request{
				PTX: text, Block: 64, Grid: 2,
				Options: core.Options{Arch: gpusim.FermiConfig(), Backends: backends},
			})
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if slices.ContainsFunc(c.Candidates, func(cand core.Candidate) bool { return cand.Demoted > 0 }) {
				continue
			}
			checked++
			want := make(map[regalloc.Options]int)
			users := make(map[*regalloc.Result]int)
			for _, cand := range c.Candidates {
				opts := regalloc.Options{Regs: cand.Reg}
				want[opts] = 1
				users[cand.Alloc]++
			}
			for _, cand := range c.Candidates {
				if cand.Spill != nil && cand.Spill.Alloc != cand.Alloc {
					want[regalloc.Options{Regs: cand.Reg}]++
				}
			}
			for opts, n := range rewrites {
				if n != want[opts] {
					t.Errorf("%s: %d phys-rewrite runs at %+v, want %d", name, n, opts, want[opts])
				}
			}
			for opts, n := range want {
				if rewrites[opts] == 0 {
					t.Errorf("%s: no phys-rewrite run at %+v, want %d", name, opts, n)
				}
			}

			for _, cand := range c.Candidates {
				if users[cand.Alloc] < 2 {
					continue
				}
				shared++
				fresh, err := regalloc.Allocate(c.App.Kernel, regalloc.Options{Regs: cand.Reg})
				if err != nil {
					t.Fatalf("%s: fresh allocation at %d: %v", name, cand.Reg, err)
				}
				if got, want := ptx.Print(cand.Alloc.Kernel), ptx.Print(fresh.Kernel); got != want {
					t.Errorf("%s: %s candidate at reg %d differs from a fresh allocation:\n%s\nwant:\n%s", name, cand.Backend, cand.Reg, got, want)
				}
			}
		}
	}
	if checked < 150 {
		t.Errorf("only %d of 200 compiles demoted nothing; the corpus no longer pins the shared path", checked)
	}
	if shared == 0 {
		t.Error("no candidate shared an allocation")
	}
}
