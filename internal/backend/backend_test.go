package backend_test

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"crat/internal/backend"
	"crat/internal/emu/ptxgen"
	"crat/internal/gpusim"
	"crat/internal/passes"
	"crat/internal/ptx"
	"crat/internal/regalloc"
)

func TestSpareShm(t *testing.T) {
	fermi := gpusim.FermiConfig() // 48 KB per SM and per block
	roomy := fermi
	roomy.SharedMemBytes = 96 * 1024 // a lone block's share exceeds the per-block cap
	for _, tc := range []struct {
		name    string
		arch    gpusim.Config
		shmUsed int64
		tlp     int
		want    int64
	}{
		{"zero TLP", fermi, 0, 0, 0},
		{"negative TLP", fermi, 0, -1, 0},
		{"even share", fermi, 0, 2, 24 * 1024},
		{"share minus own use", fermi, 1024, 2, 24*1024 - 1024},
		{"per-block cap", roomy, 0, 1, 48 * 1024},
		{"per-block cap minus own use", roomy, 1024, 1, 48*1024 - 1024},
		{"own use beyond the share", fermi, 30 * 1024, 2, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if got := backend.SpareShm(tc.arch, tc.shmUsed, tc.tlp); got != tc.want {
				t.Errorf("SpareShm(shmUsed=%d, tlp=%d) = %d, want %d", tc.shmUsed, tc.tlp, got, tc.want)
			}
		})
	}
}

func TestResolve(t *testing.T) {
	want := []string{"regdem", "crat", "crat-local"}
	bks, err := backend.Resolve(want)
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, b := range bks {
		got = append(got, b.Name())
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("Resolve(%v) = %v, want the input order", want, got)
	}

	_, err = backend.Resolve([]string{"crat", "no-such-backend"})
	if err == nil {
		t.Fatal("Resolve accepted an unknown backend")
	}
	for _, frag := range []string{`"no-such-backend"`, fmt.Sprint(backend.Names())} {
		if !strings.Contains(err.Error(), frag) {
			t.Errorf("Resolve error %q does not contain %q", err, frag)
		}
	}
}

func TestIsPipelineFault(t *testing.T) {
	verr := &ptx.VerifyError{Kernel: "k", Pass: "spill-insert", Inst: -1, Msg: "undefined register"}
	for _, tc := range []struct {
		name string
		err  error
		want bool
	}{
		{"wrapped verify error", fmt.Errorf("candidate (32,4): %w", verr), true},
		{"infeasible budget", regalloc.ErrInfeasible, false},
		{"wrapped infeasible budget", fmt.Errorf("candidate (8,4): %w", regalloc.ErrInfeasible), false},
		{"nil", nil, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if got := backend.IsPipelineFault(tc.err); got != tc.want {
				t.Errorf("IsPipelineFault(%v) = %v, want %v", tc.err, got, tc.want)
			}
		})
	}
}

// analysesOf renders every analysis am holds for its kernel, building the
// missing ones, so that two renderings differ exactly when an analysis
// changed.
func analysesOf(t *testing.T, am *passes.AnalysisManager) string {
	t.Helper()
	g, err := am.CFG()
	if err != nil {
		t.Fatal(err)
	}
	lv, err := am.Liveness()
	if err != nil {
		t.Fatal(err)
	}
	doms, _ := am.Dominators()
	pdoms, _ := am.PostDominators()
	depth, _ := am.LoopDepth()
	rc, _ := am.Reconvergence()
	ud := am.UseDef()
	return fmt.Sprintf("%p %v\n%v %v %v\n%v %v %v\n%v %v\n%v", g, *g, lv.BlockIn, lv.BlockOut, lv.InstOut, doms, pdoms, depth, *rc, *ud, am.Computes)
}

// TestBackendsLeaveInputAnalysesIntact pins the rule a shared Input rests
// on: analyses are immutable once built. Every backend compiles spilling,
// demoting and spill-free points from one Input, and afterwards the input
// kernel and every analysis on its manager are unchanged, with nothing
// rebuilt.
func TestBackendsLeaveInputAnalysesIntact(t *testing.T) {
	fermi := gpusim.FermiConfig()
	spilled, demoted := false, false
	for seed := int64(1); seed <= 20; seed++ {
		k := ptxgen.Generate(ptxgen.Config{Seed: seed, Block: 128})
		am := passes.NewAnalysisManager(k)
		maxReg, err := regalloc.MaxRegWith(am)
		if err != nil {
			t.Fatal(err)
		}
		before, text := analysesOf(t, am), ptx.Print(k)
		in := backend.NewInput(am)
		req := backend.Request{
			AppName: k.Name, Kernel: k, Arch: fermi, BlockSize: 128, OptTLP: 4,
			Points: []backend.Point{{Reg: maxReg, TLP: 4}, {Reg: max(maxReg*2/3, 8), TLP: 2}, {Reg: max(maxReg/2, 6), TLP: 1}},
			Input:  in,
		}
		for _, name := range backend.Names() {
			bk, _ := backend.Lookup(name)
			cands, err := bk.Candidates(&passes.Manager{VerifyEach: true}, req)
			if err != nil {
				t.Fatalf("seed %d %s: %v", seed, name, err)
			}
			for _, c := range cands {
				spilled = spilled || len(c.Alloc.Spills) > 0
				demoted = demoted || c.Demoted > 0
			}
		}
		if ptx.Print(k) != text {
			t.Fatalf("seed %d: the backends modified the input kernel", seed)
		}
		if after := analysesOf(t, am); after != before {
			t.Fatalf("seed %d: the input's analyses changed:\nbefore %s\nafter  %s", seed, before, after)
		}
	}
	if !spilled || !demoted {
		t.Errorf("corpus spilled=%v demoted=%v; it no longer covers both rewriting paths", spilled, demoted)
	}
}
