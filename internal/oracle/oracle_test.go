package oracle_test

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"os"
	"strconv"
	"strings"
	"testing"

	"crat/internal/backend"
	"crat/internal/core"
	"crat/internal/emu/ptxgen"
	"crat/internal/gpusim"
	"crat/internal/oracle"
	"crat/internal/passes"
	"crat/internal/ptx"
	"crat/internal/regalloc"
	"crat/internal/sem"
	"crat/internal/spillopt"
	"crat/internal/workloads"
)

// oracleApp shrinks a workload to an emulation-friendly grid unless
// ORACLE_FULL_GRID is set (the make oracle-smoke gate validates full
// launches). Block size, kernel, and per-block behaviour are unchanged —
// only fewer blocks run.
func oracleApp(t testing.TB, p workloads.Profile) core.App {
	if os.Getenv("ORACLE_FULL_GRID") != "" {
		return p.App()
	}
	grid := 2
	if p.Grid < grid {
		grid = p.Grid
	}
	return p.AppWithInput(workloads.Input{Name: "oracle", GridScale: float64(grid) / float64(p.Grid), DataScale: 1})
}

// buildVariants register-allocates the app's kernel at the given budget and
// applies the shared-memory spilling optimization, returning both rewrite
// stages.
func buildVariants(t testing.TB, app core.App, arch gpusim.Config, a *core.Analysis, budget int) (alloc *regalloc.Result, spill *spillopt.Result) {
	t.Helper()
	allocOpts := regalloc.Options{Regs: budget}
	alloc, err := regalloc.Allocate(app.Kernel, allocOpts)
	if err != nil {
		t.Fatalf("%s: allocate at %d regs: %v", app.Name, budget, err)
	}
	spill, err = spillopt.Optimize(alloc, allocOpts, spillopt.Options{
		SpareShmBytes: backend.SpareShm(arch, a.ShmSize, a.OptTLP),
		BlockSize:     a.BlockSize,
	})
	if err != nil {
		t.Fatalf("%s: spillopt at %d regs: %v", app.Name, budget, err)
	}
	return alloc, spill
}

// TestWorkloadsZeroDivergence differentially validates every seed workload
// kernel: original vs register-allocated vs spill-optimized, at both the
// app's default budget and the tightest feasible budget (maximum spill
// pressure). The acceptance criterion is zero divergences.
func TestWorkloadsZeroDivergence(t *testing.T) {
	arch := gpusim.FermiConfig()
	for _, p := range workloads.All() {
		p := p
		t.Run(p.Abbr, func(t *testing.T) {
			t.Parallel()
			app := oracleApp(t, p)
			a, err := core.Analyze(app, arch)
			if err != nil {
				t.Fatalf("analyze: %v", err)
			}
			budgets := []int{a.DefaultReg}
			if floor := core.FeasibleFloor(app.Kernel, a.MaxReg); floor < a.DefaultReg {
				budgets = append(budgets, floor)
			}
			for _, budget := range budgets {
				alloc, spill := buildVariants(t, app, arch, a, budget)
				d, err := oracle.CheckChain(app.Kernel, alloc.Kernel, spill.Alloc.Kernel, oracle.Options{
					Grid: app.Grid, Block: app.Block, Setup: app.Setup,
				})
				if err != nil {
					t.Fatalf("budget %d: oracle error: %v", budget, err)
				}
				if d != nil {
					t.Fatalf("budget %d: unexpected divergence: %v", budget, d)
				}
			}
		})
	}
}

// mutateKernel flips the first eligible add into a sub — the canonical
// injected miscompile.
func mutateKernel(k *ptx.Kernel) *ptx.Kernel {
	m := k.Clone()
	for i := range m.Insts {
		in := &m.Insts[i]
		if in.Op == ptx.OpAdd && in.Type == ptx.F32 {
			in.Op = ptx.OpSub
			return m
		}
	}
	for i := range m.Insts {
		in := &m.Insts[i]
		if in.Op == ptx.OpAdd {
			in.Op = ptx.OpSub
			return m
		}
	}
	return nil
}

// TestInjectedMiscompileCaught verifies the oracle's sensitivity: a
// single flipped opcode must be reported as a Divergence with store
// provenance.
func TestInjectedMiscompileCaught(t *testing.T) {
	p := workloads.All()[0]
	app := oracleApp(t, p)
	bad := mutateKernel(app.Kernel)
	if bad == nil {
		t.Fatalf("no mutable instruction in %s", app.Name)
	}
	d, err := oracle.Check(app.Kernel, bad, "regalloc", oracle.Options{
		Grid: app.Grid, Block: app.Block, Setup: app.Setup,
	})
	if err != nil {
		t.Fatalf("oracle error: %v", err)
	}
	if d == nil {
		t.Fatalf("injected miscompile not detected")
	}
	if d.Stage != "regalloc" || d.Kernel != app.Kernel.Name {
		t.Fatalf("divergence mislabelled: %+v", d)
	}
	if d.VarFault == nil && d.RefStore == nil && d.VarStore == nil {
		t.Fatalf("divergence carries no localization: %v", d)
	}
	t.Logf("caught: %v", d)
}

// TestVariantFaultIsDivergence: a variant that crashes (null-pointer store)
// where the reference does not must surface as a divergence, not an oracle
// error.
func TestVariantFaultIsDivergence(t *testing.T) {
	b := ptx.NewBuilder("ok")
	b.Param("out", ptx.U64)
	pout := b.Reg(ptx.U64)
	b.LdParam(ptx.U64, pout, "out")
	b.St(ptx.SpaceGlobal, ptx.U32, ptx.MemReg(pout, 0), ptx.Imm(7))
	b.Exit()
	ref := b.Kernel()

	bad := ref.Clone()
	for i := range bad.Insts {
		if bad.Insts[i].Op == ptx.OpLd { // ld.param of the out pointer
			bad.Insts[i].Srcs[0] = ptx.MemSym("out", 32) // reads past the param block → 0
		}
	}
	d, err := oracle.Check(ref, bad, "regalloc", oracle.Options{Grid: 1, Block: 1})
	if err != nil {
		t.Fatalf("oracle error: %v", err)
	}
	if d == nil || d.VarFault == nil {
		t.Fatalf("expected variant-fault divergence, got %v", d)
	}
}

// TestMetamorphicSpillExtremes: over generated kernels, the
// spill-everything allocation (tightest feasible budget) and the
// spill-nothing allocation (unbounded budget) must both match the original
// program.
func TestMetamorphicSpillExtremes(t *testing.T) {
	const seeds = 30
	block := 64
	checked := 0
	for seed := int64(0); seed < seeds; seed++ {
		k := ptxgen.Generate(ptxgen.Config{Seed: seed, Block: block})
		loose, err := regalloc.Allocate(k, regalloc.Options{Regs: 256})
		if err != nil {
			t.Fatalf("seed %d: loose allocate: %v", seed, err)
		}
		tight := tightestAlloc(t, k)
		if tight == nil {
			continue // kernel too small to ever spill; extremes coincide
		}
		if len(tight.Spills) == 0 {
			continue
		}
		checked++
		d, err := oracle.CheckVariants(k, []oracle.Variant{
			{Stage: "spill-nothing", Kernel: loose.Kernel},
			{Stage: "spill-everything", Kernel: tight.Kernel},
		}, oracle.Options{Grid: 2, Block: block, Seed: seed})
		if err != nil {
			t.Fatalf("seed %d: oracle error: %v", seed, err)
		}
		if d != nil {
			t.Fatalf("seed %d: spill extreme diverges: %v", seed, d)
		}
	}
	if checked < 5 {
		t.Fatalf("only %d/%d generated kernels actually spilled; property under-exercised", checked, seeds)
	}
}

// tightestAlloc binary-searches the smallest feasible register budget.
func tightestAlloc(t *testing.T, k *ptx.Kernel) *regalloc.Result {
	t.Helper()
	lo, hi := 2, 64
	var best *regalloc.Result
	for lo <= hi {
		mid := (lo + hi) / 2
		r, err := regalloc.Allocate(k, regalloc.Options{Regs: mid})
		if err != nil {
			lo = mid + 1
			continue
		}
		best = r
		hi = mid - 1
	}
	return best
}

// TestMetamorphicSplitInvariance: Algorithm 1's sub-stack split strategy
// (and the greedy-order inversion) changes *which* spill slots move to
// shared memory, never the results — every split permutation must agree
// with the original kernel.
func TestMetamorphicSplitInvariance(t *testing.T) {
	const seeds = 20
	block := 64
	checked := 0
	for seed := int64(0); seed < seeds; seed++ {
		k := ptxgen.Generate(ptxgen.Config{Seed: seed, Block: block})
		tight := tightestAlloc(t, k)
		if tight == nil || len(tight.Spills) == 0 {
			continue
		}
		// Give the optimizer a little slack over the absolute minimum:
		// promoting spill slots to shared memory can change register needs,
		// and reallocation at the exact infeasibility edge may fail for some
		// split shapes (that failure path is exercised elsewhere).
		allocOpts := regalloc.Options{Regs: tight.UsedRegs + 2}
		base, err := regalloc.Allocate(k, allocOpts)
		if err != nil {
			t.Fatalf("seed %d: allocate at %d regs: %v", seed, allocOpts.Regs, err)
		}
		if len(base.Spills) == 0 {
			continue
		}
		var variants []oracle.Variant
		for _, split := range []spillopt.Split{spillopt.SplitByType, spillopt.SplitWhole, spillopt.SplitPerVariable} {
			for _, lowGain := range []bool{false, true} {
				res, err := spillopt.Optimize(base, allocOpts, spillopt.Options{
					SpareShmBytes: 4096,
					BlockSize:     block,
					Split:         split,
					PreferLowGain: lowGain,
				})
				if err != nil {
					// Shared-memory promotion inserts address computations;
					// near the feasibility edge reallocation may legitimately
					// fail for some split shapes. Skip the combo — invariance
					// only applies to splits that produce a kernel.
					continue
				}
				variants = append(variants, oracle.Variant{
					Stage:  split.String(),
					Kernel: res.Alloc.Kernel,
				})
			}
		}
		checked++
		d, err := oracle.CheckVariants(k, variants, oracle.Options{Grid: 2, Block: block, Seed: seed})
		if err != nil {
			t.Fatalf("seed %d: oracle error: %v", seed, err)
		}
		if d != nil {
			t.Fatalf("seed %d: split permutation diverges: %v", seed, d)
		}
	}
	if checked < 5 {
		t.Fatalf("only %d/%d generated kernels spilled; property under-exercised", checked, seeds)
	}
}

// TestMetamorphicBackends: every registered optimization backend is a
// semantics-preserving transformation, so over generated kernels each
// backend's chosen kernel — and the full union's winner — must agree
// with the original program on the same generated inputs. Pruning keeps
// the generated kernels' own design spaces tame, so the suite also
// drives each backend directly through the Backend interface at forced
// tight register budgets, where regdem actually demotes and crat
// actually spills; every candidate those builds produce must be
// oracle-clean too.
func TestMetamorphicBackends(t *testing.T) {
	const seeds = 24
	block := 256
	arch := gpusim.FermiConfig()
	names := backend.Names()
	opts := core.Options{
		Arch:   arch,
		OptTLP: 6,
		Costs:  gpusim.Costs{Local: 40, Shared: 4},
	}
	demoted := 0
	for seed := int64(0); seed < seeds; seed++ {
		k := ptxgen.Generate(ptxgen.Config{Seed: seed, Block: block, MaxOps: 96})
		app := core.App{Name: k.Name, Kernel: k, Block: block, Grid: 2}
		a, err := core.Analyze(app, arch)
		if err != nil {
			t.Fatalf("seed %d: analyze: %v", seed, err)
		}
		var variants []oracle.Variant
		for _, name := range names {
			o := opts
			o.Backends = []string{name}
			d, err := core.OptimizeCtx(t.Context(), app, o)
			if err != nil {
				t.Fatalf("seed %d: backend %s: %v", seed, name, err)
			}
			if d.Backend != name {
				t.Fatalf("seed %d: backend %s attributed its win to %q", seed, name, d.Backend)
			}
			variants = append(variants, oracle.Variant{Stage: "backend-" + name, Kernel: d.Chosen.Kernel()})
		}
		o := opts
		o.Backends = names
		d, err := core.OptimizeCtx(t.Context(), app, o)
		if err != nil {
			t.Fatalf("seed %d: union: %v", seed, err)
		}
		variants = append(variants, oracle.Variant{Stage: "backend-union-" + d.Backend, Kernel: d.Chosen.Kernel()})

		// Forced tight budgets (slack permitting): a little above the
		// feasibility floor and halfway to the kernel's full demand.
		if lo := a.MinReg + 6; lo < a.MaxReg {
			req := backend.Request{
				AppName:   app.Name,
				Kernel:    k,
				Arch:      arch,
				BlockSize: block,
				ShmSize:   a.ShmSize,
				OptTLP:    4,
				Points:    []backend.Point{{Reg: lo, TLP: 4}, {Reg: (lo + a.MaxReg) / 2, TLP: 4}},
			}
			for _, name := range names {
				bk, ok := backend.Lookup(name)
				if !ok {
					t.Fatalf("backend %s not registered", name)
				}
				pm := &passes.Manager{VerifyEach: true}
				cands, err := bk.Candidates(pm, req)
				if err != nil {
					t.Fatalf("seed %d: %s at tight budgets: %v", seed, name, err)
				}
				sawDemotion := false
				for _, c := range cands {
					variants = append(variants, oracle.Variant{
						Stage:  fmt.Sprintf("tight-%s-reg%d", name, c.Reg),
						Kernel: c.Kernel(),
					})
					if c.Demoted > 0 {
						sawDemotion = true
					}
				}
				if name == "regdem" && sawDemotion {
					demoted++
				}
			}
		}
		dv, err := oracle.CheckVariants(k, variants, oracle.Options{Grid: 2, Block: block, Seed: seed})
		if err != nil {
			t.Fatalf("seed %d: oracle error: %v", seed, err)
		}
		if dv != nil {
			t.Fatalf("seed %d: backend output diverges: %v", seed, dv)
		}
	}
	if demoted < 5 {
		t.Fatalf("regdem demoted registers on only %d/%d seeds; property under-exercised", demoted, seeds)
	}
}

// TestGenInputsDeterministic pins the input generator's contract: identical
// seeds yield identical images and parameters.
func TestGenInputsDeterministic(t *testing.T) {
	k := ptxgen.Generate(ptxgen.Config{Seed: 7})
	m1, p1 := oracle.GenInputs(k, 2, 64, 42)
	m2, p2 := oracle.GenInputs(k, 2, 64, 42)
	if len(p1) != len(p2) {
		t.Fatalf("param count differs")
	}
	for i := range p1 {
		if p1[i] != p2[i] {
			t.Fatalf("param %d differs: %#x vs %#x", i, p1[i], p2[i])
		}
	}
	if !m1.Equal(m2) {
		t.Fatalf("memory images differ")
	}
	m3, _ := oracle.GenInputs(k, 2, 64, 43)
	if m1.Equal(m3) {
		t.Fatalf("distinct seeds produced identical images")
	}
	_ = sem.NewMemory // keep sem import for clarity of the contract
}

// TestGenInputsDigest pins the generated inputs byte for byte: for a fixed
// set of ptxgen and Table-3 kernels, grids and seeds, a digest over the
// parameter values, every pointer buffer with a margin on both sides and
// the allocator's break must not move. The oracle's verdicts, and so every
// recorded Decision, depend on these bytes; a change to how the images are
// built or stored must leave them as they are.
func TestGenInputsDigest(t *testing.T) {
	for _, c := range []struct {
		kernel      string // a ptxgen seed ("gen7") or a Table-3 abbreviation
		grid, block int
		seed        int64
		want        string
	}{
		{"gen7", 2, 64, 42, "599ff77c69839d40"},
		{"gen100", 1, 64, 100, "77a29255450c1061"},
		{"gen101", 3, 128, 5, "e840e380051cd99f"},
		{"gen3", 2, 256, 0, "a8f0b426e0e24887"},
		{"BLK", 2, 128, 9, "f63eed32eb62c65f"},
		{"HST", 2, 192, 10, "d7696a5906993e4d"},
		{"SGM", 2, 128, 11, "3f6a92174ea1571c"},
	} {
		var k *ptx.Kernel
		if gen, ok := strings.CutPrefix(c.kernel, "gen"); ok {
			seed, _ := strconv.ParseInt(gen, 10, 64)
			k = ptxgen.Generate(ptxgen.Config{Seed: seed, Block: c.block})
		} else {
			p, ok := workloads.ByAbbr(c.kernel)
			if !ok || p.App().Block != c.block {
				t.Fatalf("no workload %s at block %d", c.kernel, c.block)
			}
			k = p.App().Kernel
		}
		mem, params := oracle.GenInputs(k, c.grid, c.block, c.seed)
		h := sha256.New()
		for i, p := range k.Params {
			binary.Write(h, binary.LittleEndian, params[i])
			if p.Type.Bits() != 64 || p.Type.IsFloat() {
				continue
			}
			// The buffer holds 8 bytes per thread; read 256 bytes before it
			// and 4KB after it as well.
			for a := params[i] - 256; a < params[i]+uint64(8*c.grid*c.block)+4096; a += 8 {
				binary.Write(h, binary.LittleEndian, mem.ReadUint64(a))
			}
		}
		binary.Write(h, binary.LittleEndian, mem.Alloc(1))
		if got := hex.EncodeToString(h.Sum(nil))[:16]; got != c.want {
			t.Errorf("%s (grid %d, block %d, seed %d): inputs digest %s, want %s", c.kernel, c.grid, c.block, c.seed, got, c.want)
		}
	}
}
