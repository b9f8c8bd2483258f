package workloads

import (
	"testing"

	"crat/internal/core"
	"crat/internal/gpusim"
	"crat/internal/ptx"
	"crat/internal/regalloc"
)

func TestAllProfilesBuildValidKernels(t *testing.T) {
	for _, p := range All() {
		p := p
		t.Run(p.Abbr, func(t *testing.T) {
			k := buildKernel(p)
			if err := k.Validate(); err != nil {
				t.Fatalf("kernel invalid: %v", err)
			}
			// The kernel must round-trip through the PTX text form.
			if _, err := ptx.Parse(ptx.Print(k)); err != nil {
				t.Fatalf("kernel does not reparse: %v", err)
			}
		})
	}
}

func TestTable3Composition(t *testing.T) {
	sens, insens := Sensitive(), Insensitive()
	if len(sens) != 11 {
		t.Errorf("sensitive apps = %d, want 11 (paper Table 3)", len(sens))
	}
	if len(insens) != 11 {
		t.Errorf("insensitive apps = %d, want 11 (paper Table 3)", len(insens))
	}
	seen := map[string]bool{}
	for _, p := range All() {
		if seen[p.Abbr] {
			t.Errorf("duplicate abbreviation %s", p.Abbr)
		}
		seen[p.Abbr] = true
		if p.Block <= 0 || p.Grid <= 0 {
			t.Errorf("%s: non-positive launch shape", p.Abbr)
		}
	}
	for _, p := range sens {
		if !p.Sensitive {
			t.Errorf("%s in Sensitive() but not marked", p.Abbr)
		}
	}
	for _, p := range insens {
		if p.Sensitive {
			t.Errorf("%s in Insensitive() but marked sensitive", p.Abbr)
		}
	}
	// Paper abbreviations must all resolve.
	for _, abbr := range []string{"BLK", "CFD", "DTC", "ESP", "FDTD", "HST", "KMN",
		"LBM", "SPMV", "STE", "STM", "BAK", "BFS", "B+T", "GAU", "LUD", "MUM",
		"NEED", "PTF", "PATH", "SGM", "SRAD"} {
		if _, ok := ByAbbr(abbr); !ok {
			t.Errorf("ByAbbr(%q) missing", abbr)
		}
	}
	if _, ok := ByAbbr("NOPE"); ok {
		t.Error("ByAbbr accepted an unknown abbreviation")
	}
}

func TestPressureDrivesMaxReg(t *testing.T) {
	arch := gpusim.FermiConfig()
	for _, p := range Sensitive() {
		k := buildKernel(p)
		max, err := regalloc.MaxReg(k)
		if err != nil {
			t.Fatalf("%s: %v", p.Abbr, err)
		}
		minWant := p.Pressure + p.ColdPressure
		if max < minWant {
			t.Errorf("%s: MaxReg %d below accumulator count %d", p.Abbr, max, minWant)
		}
		if max > minWant+30 {
			t.Errorf("%s: MaxReg %d implausibly far above accumulators %d", p.Abbr, max, minWant)
		}
		// The default register count must be allocatable.
		def := p.DefaultReg
		if def == 0 {
			def = max
			if def > arch.MaxRegPerThread {
				def = arch.MaxRegPerThread
			}
		}
		if _, err := regalloc.Allocate(k, regalloc.Options{Regs: def}); err != nil {
			t.Errorf("%s: default %d regs not allocatable: %v", p.Abbr, def, err)
		}
	}
}

func TestInsensitiveAppsFitWithoutPressure(t *testing.T) {
	// Insensitive apps must reach the block/thread occupancy limit at
	// their default registers: registers never throttle them.
	arch := gpusim.FermiConfig()
	for _, p := range Insensitive() {
		app := p.App()
		a, err := core.Analyze(app, arch)
		if err != nil {
			t.Fatalf("%s: %v", p.Abbr, err)
		}
		byThreads := arch.MaxThreadsPerSM / p.Block
		want := arch.MaxBlocksPerSM
		if byThreads < want {
			want = byThreads
		}
		if shm := a.ShmSize; shm > 0 {
			if byShm := arch.SharedMemBytes / int(shm); byShm < want {
				want = byShm
			}
		}
		if a.MaxTLP != want {
			t.Errorf("%s: MaxTLP %d, want %d (registers should not throttle)", p.Abbr, a.MaxTLP, want)
		}
	}
}

func TestSetupAllocatesEnoughData(t *testing.T) {
	// Simulate each app briefly at TLP=1 on a small grid to verify the
	// Setup buffers cover every access the kernel makes (the memory model
	// would silently return zeros, but out-of-bounds float reads would
	// produce NaN sums and, more importantly, the run must complete).
	arch := gpusim.FermiConfig()
	for _, p := range All() {
		p := p
		t.Run(p.Abbr, func(t *testing.T) {
			app := p.App()
			st, err := core.SimulateKernelCtx(t.Context(), app, arch, app.Kernel, 0, 1)
			if err != nil {
				t.Fatalf("simulate: %v", err)
			}
			if st.GlobalLoads == 0 || st.GlobalStores == 0 {
				t.Errorf("no global traffic: %+v", st)
			}
			if st.BlocksCompleted != int64(p.Grid) {
				t.Errorf("completed %d blocks, want %d", st.BlocksCompleted, p.Grid)
			}
		})
	}
}

func TestWorkloadKnobs(t *testing.T) {
	base := Profile{Kernel: "k", Block: 64, Grid: 2, Pressure: 4, StreamIters: 2}

	shared := base
	shared.SharedWords = 128
	ks := buildKernel(shared)
	if ks.SharedBytes() != 4*128 {
		t.Errorf("SharedBytes = %d, want %d", ks.SharedBytes(), 4*128)
	}
	if buildKernel(base).SharedBytes() != 0 {
		t.Error("base kernel should use no shared memory")
	}

	sfu := base
	sfu.UseSFU = true
	if buildKernel(sfu).StaticStats().SFU <= buildKernel(base).StaticStats().SFU {
		t.Error("UseSFU did not add SFU instructions")
	}

	div := base
	div.Divergent = 4
	if buildKernel(div).StaticStats().Branches <= buildKernel(base).StaticStats().Branches {
		t.Error("Divergent did not add branches")
	}

	loads := base
	loads.LoadsPerIter = 4
	if buildKernel(loads).StaticStats().Loads <= buildKernel(base).StaticStats().Loads {
		t.Error("LoadsPerIter did not add loads")
	}
}

func TestInputsScaleGrid(t *testing.T) {
	p, _ := ByAbbr("CFD")
	if len(p.Inputs) < 3 {
		t.Fatalf("CFD needs >=3 inputs for the §7.4 study, has %d", len(p.Inputs))
	}
	for _, in := range p.Inputs {
		app := p.AppWithInput(in)
		wantGrid := int(float64(p.Grid)*in.GridScale + 0.5)
		if app.Grid != wantGrid {
			t.Errorf("input %s: grid %d, want %d", in.Name, app.Grid, wantGrid)
		}
		if app.Kernel == nil || app.Setup == nil {
			t.Errorf("input %s: incomplete app", in.Name)
		}
	}
	if got := InputsFor("BLK"); len(got) < 3 {
		t.Errorf("InputsFor(BLK) = %d inputs, want a default ladder of >=3", len(got))
	}
	if got := InputsFor("NOPE"); got != nil {
		t.Error("InputsFor accepted unknown abbreviation")
	}
}

func TestFunctionalDeterminismAcrossTLP(t *testing.T) {
	// The same app must produce identical output values regardless of the
	// TLP limit (scheduling must not change results).
	arch := gpusim.FermiConfig()
	p, _ := ByAbbr("STM")

	run := func(tlp int) []uint32 {
		app := p.App()
		mem := gpusim.NewMemory()
		params := app.Setup(mem)
		sim, err := gpusim.NewSimulator(arch, mem, gpusim.Launch{
			Kernel: app.Kernel, Grid: app.Grid, Block: app.Block,
			Params: params, TLPLimit: tlp,
		})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := sim.Run(); err != nil {
			t.Fatal(err)
		}
		out := params[1]
		res := make([]uint32, app.Block*app.Grid)
		for i := range res {
			res[i] = mem.ReadUint32(out + uint64(4*i))
		}
		return res
	}
	a := run(1)
	b := run(4)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("output %d differs across TLP: %x vs %x", i, a[i], b[i])
		}
	}
}
