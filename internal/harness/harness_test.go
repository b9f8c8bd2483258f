package harness

import (
	"math"
	"strings"
	"testing"

	"crat/internal/core"
	"crat/internal/gpusim"
	"crat/internal/workloads"
)

// tinyProfile is a minimal fast workload for session-level tests.
func tinyProfile() workloads.Profile {
	return workloads.Profile{
		Name: "tiny", Kernel: "tiny", Abbr: "TINY", Suite: "test",
		Block: 64, Grid: 4,
		Pressure: 6, Chain: 2, StreamIters: 2,
	}
}

func TestGeomean(t *testing.T) {
	if g := Geomean(nil); g != 1 {
		t.Errorf("Geomean(nil) = %v, want 1", g)
	}
	if g := Geomean([]float64{2, 8}); math.Abs(g-4) > 1e-12 {
		t.Errorf("Geomean(2,8) = %v, want 4", g)
	}
	if g := Geomean([]float64{1, 1, 1}); g != 1 {
		t.Errorf("Geomean(ones) = %v, want 1", g)
	}
}

func TestTableRender(t *testing.T) {
	tb := &Table{
		ID:      "x",
		Title:   "demo",
		Columns: []string{"a", "long-column"},
		Notes:   []string{"a note"},
	}
	tb.AddRow("1", "2")
	tb.AddRow("wide-cell", "3")
	var sb strings.Builder
	tb.Render(&sb)
	out := sb.String()
	for _, want := range []string{"== x: demo ==", "long-column", "wide-cell", "note: a note"} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q:\n%s", want, out)
		}
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	// Header + 2 rows aligned: the header and rows share column offsets.
	if len(lines) < 4 {
		t.Fatalf("unexpected render shape:\n%s", out)
	}
}

func TestExperimentRegistry(t *testing.T) {
	seen := map[string]bool{}
	for _, e := range Experiments() {
		if e.ID == "" || e.Desc == "" || e.Run == nil {
			t.Errorf("experiment %+v incomplete", e.ID)
		}
		if seen[e.ID] {
			t.Errorf("duplicate experiment id %s", e.ID)
		}
		seen[e.ID] = true
		if e.Arch != "" && e.Arch != "fermi" && e.Arch != "kepler" {
			t.Errorf("experiment %s: unknown arch %q", e.ID, e.Arch)
		}
	}
	// Every experiment from DESIGN.md's index must be present.
	for _, id := range []string{"table1", "table2", "table3", "fig1", "fig2", "fig3",
		"fig5", "fig6", "fig7", "fig8", "fig12", "fig13", "fig14", "fig15", "fig16",
		"energy", "fig17", "fig18", "fig19", "fig20", "overhead",
		"abl-sched", "abl-spillcost", "abl-split", "abl-pruning", "abl-tpsc",
		"abl-bypass"} {
		if !seen[id] {
			t.Errorf("experiment %s missing from registry", id)
		}
	}
}

func TestRunExperimentsRejectsUnknown(t *testing.T) {
	var sb strings.Builder
	if _, err := RunExperimentsCtx(t.Context(), []string{"fig99"}, RunOptions{Workers: 1, Strict: true}, &sb); err == nil {
		t.Error("RunExperimentsCtx accepted an unknown id")
	}
}

func TestSessionCaching(t *testing.T) {
	s, err := NewSession(gpusim.FermiConfig())
	if err != nil {
		t.Fatal(err)
	}
	p := tinyProfile()
	a1, runs1, err := s.Analysis(p)
	if err != nil {
		t.Fatal(err)
	}
	if a1.OptTLP < 1 || a1.OptTLP > a1.MaxTLP {
		t.Errorf("OptTLP %d out of range", a1.OptTLP)
	}
	if len(runs1) != a1.MaxTLP {
		t.Errorf("profiled %d TLPs, want %d", len(runs1), a1.MaxTLP)
	}
	run, _, _ := s.SimCounts()
	a2, _, err := s.Analysis(p)
	if err != nil {
		t.Fatal(err)
	}
	if a2 != a1 {
		t.Error("Analysis not cached (pointer differs)")
	}
	if again, _, _ := s.SimCounts(); again != run {
		t.Error("cached Analysis re-profiled")
	}

	st1, d1, err := s.Mode(p, core.ModeCRAT)
	if err != nil {
		t.Fatal(err)
	}
	st2, d2, err := s.Mode(p, core.ModeCRAT)
	if err != nil {
		t.Fatal(err)
	}
	if d1 != d2 || st1.Cycles != st2.Cycles {
		t.Error("Mode not cached")
	}
	sp, err := s.Speedup(p, core.ModeOptTLP)
	if err != nil {
		t.Fatal(err)
	}
	if sp != 1.0 {
		t.Errorf("OptTLP self-speedup = %v, want exactly 1", sp)
	}
}

func TestTable2And3Static(t *testing.T) {
	s, err := NewSession(gpusim.FermiConfig())
	if err != nil {
		t.Fatal(err)
	}
	t2 := s.Table2()
	if len(t2.Rows) < 8 {
		t.Errorf("table2 rows = %d, want the full configuration", len(t2.Rows))
	}
	t3 := Table3()
	if len(t3.Rows) != 22 {
		t.Errorf("table3 rows = %d, want 22 applications", len(t3.Rows))
	}
}

func TestCostsMeasuredOnce(t *testing.T) {
	s, err := NewSession(gpusim.FermiConfig())
	if err != nil {
		t.Fatal(err)
	}
	if s.Costs.Local <= 0 || s.Costs.Shared <= 0 {
		t.Errorf("costs not measured: %+v", s.Costs)
	}
	if s.Costs.Local <= s.Costs.Shared {
		t.Errorf("local cost %.1f should exceed shared %.1f", s.Costs.Local, s.Costs.Shared)
	}
}
