package core

import (
	"strings"
	"testing"

	"crat/internal/gpusim"
	"crat/internal/passes"
	"crat/internal/ptx"
	"crat/internal/regalloc"
)

// wrapPhysRewrite installs a global pass-wrap hook that runs fn on the
// physical kernel emitted by every successful allocation (the phys-rewrite
// pass rebinds its AnalysisManager to that kernel, so the After hook sees
// it), passing along the allocation's options for filtering. It is the
// pass-manager replacement for the old regalloc.MutateForTest variable.
// Callers must defer passes.SetGlobalWrap(nil).
func wrapPhysRewrite(fn func(k *ptx.Kernel, ropts regalloc.Options)) {
	passes.SetGlobalWrap(func(p passes.Pass) passes.Pass {
		pr, ok := passes.Inner(p).(interface{ AllocOptions() regalloc.Options })
		if !ok {
			return p
		}
		return passes.After(p, func(k *ptx.Kernel, _ *passes.AnalysisManager) error {
			fn(k, pr.AllocOptions())
			return nil
		})
	})
}

// verifyOpts returns pipeline options that run the oracle but no
// simulations (Costs pinned).
func verifyOpts(arch gpusim.Config) Options {
	return Options{
		Arch:              arch,
		OptTLP:            4,
		Costs:             gpusim.Costs{Local: 40, Shared: 4},
		SpillShared:       true,
		VerifyEquivalence: true,
	}
}

// TestVerifyEquivalenceClean: on an honest compile the oracle must find
// nothing and leave the decision untouched.
func TestVerifyEquivalenceClean(t *testing.T) {
	arch := gpusim.FermiConfig()
	d, err := OptimizeCtx(t.Context(), testApp(), verifyOpts(arch))
	if err != nil {
		t.Fatalf("Optimize: %v", err)
	}
	if d.Degraded || d.Divergence != nil {
		t.Fatalf("clean pipeline reported degradation: %+v", d.Divergence)
	}
}

// mutateFirstF32Add flips the first f32 add to a sub — a structurally
// valid kernel the allocator's own verifier cannot reject.
func mutateFirstF32Add(k *ptx.Kernel) bool {
	for i := range k.Insts {
		in := &k.Insts[i]
		if in.Op == ptx.OpAdd && in.Type == ptx.F32 {
			in.Op = ptx.OpSub
			return true
		}
	}
	return false
}

// TestInjectedMiscompileDegrades is the acceptance scenario: a test-only
// mutation inside regalloc miscompiles the chosen candidate; the oracle
// must catch it, report it as a Divergence, and complete the pipeline on
// the verified baseline allocation.
func TestInjectedMiscompileDegrades(t *testing.T) {
	arch := gpusim.FermiConfig()
	app := testApp()
	opts := verifyOpts(arch)

	// The ablation flag marks candidate allocations: Analyze's register
	// sweeps and the baseline fallback allocate with default options, so
	// the mutation below cannot touch them even at coinciding budgets.
	opts.UnweightedSpillCost = true

	// Pass 1 (honest) learns which budget wins; TPSC selection is
	// deterministic, so the sabotaged pass chooses the same point.
	clean, err := OptimizeCtx(t.Context(), app, opts)
	if err != nil {
		t.Fatalf("clean Optimize: %v", err)
	}
	chosenReg := clean.Chosen.Reg

	mutated := false
	wrapPhysRewrite(func(k *ptx.Kernel, ropts regalloc.Options) {
		// Corrupt only the winning candidate's physical kernel: the first
		// candidate-marked allocation at the chosen budget (budgets are
		// deduped across candidates; the spillopt reallocation comes
		// second and is spared by the once-only flag).
		if mutated || !ropts.UnweightedSpillCost || ropts.Regs != chosenReg {
			return
		}
		mutated = mutateFirstF32Add(k)
	})
	defer passes.SetGlobalWrap(nil)

	d, err := OptimizeCtx(t.Context(), app, opts)
	if err != nil {
		t.Fatalf("Optimize with injected miscompile: %v", err)
	}
	if !mutated {
		t.Fatalf("mutation hook never fired for budget %d", chosenReg)
	}
	if !d.Degraded {
		t.Fatalf("injected miscompile not detected; chosen reg=%d", d.Chosen.Reg)
	}
	if d.Divergence == nil || d.Divergence.Stage != "regalloc" {
		t.Fatalf("divergence missing or mislabelled: %+v", d.Divergence)
	}
	// The fallback is the MaxReg budget with no shared-memory spilling.
	// (Analysis.MaxReg comes from dataflow, so the coloring heuristic may
	// still spill a few slots to local memory — the oracle verified the
	// result, which is what matters.)
	if d.Chosen.Reg != d.Analysis.MaxReg || d.Chosen.Spill != nil {
		t.Fatalf("fallback is not the baseline allocation: reg=%d spill=%v", d.Chosen.Reg, d.Chosen.Spill)
	}
}

// TestMiscompiledBaselineIsHardError: when even the fallback allocation
// diverges there is nothing trustworthy to ship, and the pipeline must
// fail loudly rather than degrade.
func TestMiscompiledBaselineIsHardError(t *testing.T) {
	arch := gpusim.FermiConfig()
	wrapPhysRewrite(func(k *ptx.Kernel, _ regalloc.Options) {
		mutateFirstF32Add(k)
	})
	defer passes.SetGlobalWrap(nil)

	_, err := OptimizeCtx(t.Context(), testApp(), verifyOpts(arch))
	if err == nil {
		t.Fatalf("expected hard error when every allocation is miscompiled")
	}
	if !strings.Contains(err.Error(), "baseline") {
		t.Fatalf("error does not identify the baseline failure: %v", err)
	}
}

// TestVerifySimpleModes: the MaxTLP/OptTLP baselines go through the same
// oracle gate as the CRAT modes.
func TestVerifySimpleModes(t *testing.T) {
	arch := gpusim.FermiConfig()
	app := testApp()
	opts := verifyOpts(arch)
	for _, mode := range []Mode{ModeMaxTLP, ModeOptTLP} {
		mopts, err := mode.Options(app, opts)
		if err != nil {
			t.Fatalf("%v: %v", mode, err)
		}
		d, err := OptimizeCtx(t.Context(), app, mopts)
		if err != nil {
			t.Fatalf("%v: %v", mode, err)
		}
		if d.Degraded {
			t.Fatalf("%v: honest compile degraded: %+v", mode, d.Divergence)
		}
	}
}
