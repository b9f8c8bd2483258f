package core

import (
	"errors"
	"slices"
	"testing"

	"crat/internal/emu/ptxgen"
	"crat/internal/gpusim"
	"crat/internal/ptx"
	"crat/internal/regalloc"
)

// TestRegFloorNoProbeBelowClamp pins that Analyze runs no feasibility probe
// when MaxReg is already at or below max(MinReg, 4). That holds for every
// ptxgen kernel, the bodies of the cold-compile service load.
func TestRegFloorNoProbeBelowClamp(t *testing.T) {
	probes := RecordProbes(t, regalloc.Allocate)
	for _, arch := range []gpusim.Config{gpusim.FermiConfig(), gpusim.KeplerConfig()} {
		for seed := int64(100); seed < 400; seed++ {
			k := ptxgen.Generate(ptxgen.Config{Seed: seed, Block: 128})
			a, err := Analyze(App{Name: k.Name, Kernel: k, Block: 128, Grid: 2}, arch)
			if err != nil {
				t.Fatalf("%s seed %d: %v", arch.Name, seed, err)
			}
			lo := max(a.MinReg, 4)
			if a.MaxReg > lo {
				t.Fatalf("%s seed %d: MaxReg %d above the clamp %d; the corpus no longer pins the no-probe path", arch.Name, seed, a.MaxReg, lo)
			}
			if a.RegFloor != lo {
				t.Errorf("%s seed %d: RegFloor = %d, want %d", arch.Name, seed, a.RegFloor, lo)
			}
		}
	}
	if got := probes(); len(got) != 0 {
		t.Errorf("Analyze probed %d times (%v), want 0", len(got), got)
	}
}

// TestRegFloorOneProbeWhenMinRegFeasible pins that a kernel whose MaxReg
// exceeds MinReg costs exactly one probe, at MinReg, when MinReg is
// feasible.
func TestRegFloorOneProbeWhenMinRegFeasible(t *testing.T) {
	arch := gpusim.FermiConfig()
	probes := RecordProbes(t, regalloc.Allocate)
	a, err := Analyze(testApp(), arch)
	if err != nil {
		t.Fatal(err)
	}
	if a.MaxReg <= a.MinReg {
		t.Fatalf("MaxReg %d not above MinReg %d; the app no longer pins the one-probe path", a.MaxReg, a.MinReg)
	}
	if got := probes(); !slices.Equal(got, []int{a.MinReg}) {
		t.Errorf("probes = %v, want [%d]", got, a.MinReg)
	}
	if a.RegFloor != a.MinReg {
		t.Errorf("RegFloor = %d, want MinReg %d", a.RegFloor, a.MinReg)
	}
}

// TestRegFloorBisectsOnlyAfterFailedProbe pins that a failed probe at the
// clamp, and only that, starts a bisection over (clamp, MaxReg].
func TestRegFloorBisectsOnlyAfterFailedProbe(t *testing.T) {
	app := testApp()
	fermi := gpusim.FermiConfig()

	// A fake allocator whose floor sits above MinReg.
	const floor = 30
	probes := RecordProbes(t, func(k *ptx.Kernel, o regalloc.Options) (*regalloc.Result, error) {
		if o.Regs < floor {
			return nil, errors.New("infeasible")
		}
		return &regalloc.Result{}, nil
	})
	a, err := Analyze(app, fermi)
	if err != nil {
		t.Fatal(err)
	}
	if a.RegFloor != floor {
		t.Errorf("RegFloor = %d, want %d", a.RegFloor, floor)
	}
	got := probes()
	if len(got) < 2 || got[0] != a.MinReg {
		t.Fatalf("probes = %v, want a first probe at MinReg %d, then a bisection", got, a.MinReg)
	}
	for _, b := range got[1:] {
		if b <= a.MinReg || b >= a.MaxReg {
			t.Errorf("bisection probed %d, outside (MinReg %d, MaxReg %d)", b, a.MinReg, a.MaxReg)
		}
	}

	// The real allocator, on an architecture whose MinReg (4) sits below
	// the kernel's exact floor: the clamp is the exact floor.
	probes = RecordProbes(t, regalloc.Allocate)
	low := fermi
	low.RegFileRegs = 4 * low.MaxThreadsPerSM
	a, err = Analyze(app, low)
	if err != nil {
		t.Fatal(err)
	}
	got = probes()
	if len(got) < 2 || got[0] != 4 {
		t.Fatalf("probes = %v, want a failed first probe at 4, then a bisection", got)
	}
	if want := FeasibleFloor(app.Kernel, a.MaxReg); a.RegFloor != want {
		t.Errorf("RegFloor = %d, want FeasibleFloor %d", a.RegFloor, want)
	}
}

// TestRegRangeUncapped pins that MaxRegPerThread 0 means no ISA cap, for
// the sweep range and the staircase alike.
func TestRegRangeUncapped(t *testing.T) {
	arch := gpusim.FermiConfig()
	a, err := Analyze(testApp(), arch)
	if err != nil {
		t.Fatal(err)
	}
	arch.MaxRegPerThread = 0
	if lo, hi := a.RegRange(arch); lo != a.RegFloor || hi != a.MaxReg {
		t.Errorf("uncapped RegRange = [%d, %d], want [%d, %d]", lo, hi, a.RegFloor, a.MaxReg)
	}
	if reg := a.Staircase(arch)[1]; reg != a.MaxReg {
		t.Errorf("uncapped staircase at TLP 1 = %d, want MaxReg %d", reg, a.MaxReg)
	}

	arch.MaxRegPerThread = a.RegFloor - 1
	if lo, hi := a.RegRange(arch); lo != hi || hi != arch.MaxRegPerThread {
		t.Errorf("RegRange under a cap below RegFloor = [%d, %d], want [%d, %d]", lo, hi, arch.MaxRegPerThread, arch.MaxRegPerThread)
	}
}
