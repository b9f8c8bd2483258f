package harness

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"

	"crat/internal/core"
	"crat/internal/gpusim"
	"crat/internal/ptx"
	"crat/internal/workloads"
)

func TestPerApp(t *testing.T) {
	s, err := NewSession(gpusim.FermiConfig())
	if err != nil {
		t.Fatal(err)
	}
	tab := &Table{ID: "figX", Title: "test", Columns: []string{"app", "val", "extra"}}

	if !s.perApp(tab, "OK", func() error {
		tab.AddRow("OK", "1.000", "x")
		return nil
	}) {
		t.Error("successful fn reported as failed")
	}
	if s.perApp(tab, "ERR", func() error { return errors.New("simulated failure") }) {
		t.Error("erroring fn reported as ok")
	}
	if s.perApp(tab, "PANIC", func() error { panic("boom") }) {
		t.Error("panicking fn reported as ok")
	}

	if len(tab.Rows) != 3 {
		t.Fatalf("table has %d rows, want 3 (1 data + 2 error)", len(tab.Rows))
	}
	for _, row := range tab.Rows[1:] {
		if row[1] != "ERROR" {
			t.Errorf("failure row %v lacks the ERROR marker", row)
		}
		if len(row) != len(tab.Columns) {
			t.Errorf("failure row %v has %d cells, want %d", row, len(row), len(tab.Columns))
		}
	}
	if len(tab.Notes) != 2 {
		t.Fatalf("table has %d notes, want 2", len(tab.Notes))
	}
	if !strings.Contains(tab.Notes[0], "simulated failure") {
		t.Errorf("note %q does not carry the error", tab.Notes[0])
	}
	if !strings.Contains(tab.Notes[1], "panic: boom") {
		t.Errorf("note %q does not carry the recovered panic", tab.Notes[1])
	}
	if len(s.Faults) != 2 {
		t.Fatalf("session recorded %d faults, want 2", len(s.Faults))
	}
	if s.Faults[0].Experiment != "figX" || s.Faults[0].App != "ERR" {
		t.Errorf("fault record = %+v", s.Faults[0])
	}

	sum := s.FaultSummary()
	if sum == nil {
		t.Fatal("FaultSummary nil with recorded faults")
	}
	if len(sum.Rows) != 2 {
		t.Errorf("fault summary has %d rows, want 2", len(sum.Rows))
	}
	var buf strings.Builder
	sum.Render(&buf)
	if !strings.Contains(buf.String(), "figX") || !strings.Contains(buf.String(), "PANIC") {
		t.Errorf("rendered summary incomplete:\n%s", buf.String())
	}
}

func TestFaultSummaryNilWhenClean(t *testing.T) {
	s, err := NewSession(gpusim.FermiConfig())
	if err != nil {
		t.Fatal(err)
	}
	if s.FaultSummary() != nil {
		t.Error("clean session has a fault summary")
	}
}

// brokenApp returns an app whose kernel passes static verification but
// faults in the simulator on the first executed instruction — the shape of
// bug the graceful-degradation harness exists for.
func brokenApp() core.App {
	b := ptx.NewBuilder("broken")
	b.Param("out", ptx.U64)
	r := b.Reg(ptx.U32)
	b.Sfu(ptx.OpSin, ptx.U32, r, ptx.Imm(1)) // statically well-formed, faults at exec
	b.Exit()
	return core.App{
		Name:   "BROKEN",
		Kernel: b.Kernel(),
		Grid:   4,
		Block:  64,
		Setup: func(mem *gpusim.Memory) []uint64 {
			return []uint64{mem.Alloc(1024)}
		},
	}
}

// TestFigureDegradesGracefully drives a figure-shaped per-app loop where
// the middle app's simulation faults: the other apps must still render,
// the broken one gets an ERROR row plus a note naming the fault, and the
// session records it.
func TestFigureDegradesGracefully(t *testing.T) {
	s, err := NewSession(gpusim.FermiConfig())
	if err != nil {
		t.Fatal(err)
	}
	good := tinyProfile()
	bad := workloads.Profile{Name: "broken", Kernel: "broken", Abbr: "BROKEN", Suite: "test",
		Block: 64, Grid: 4, Pressure: 4, Chain: 2, StreamIters: 2}
	// Poison the cache: Analysis will simulate this kernel.
	s.apps.Do(context.Background(), bad.Abbr, func() (core.App, error) { return brokenApp(), nil })

	tab := &Table{ID: "figtest", Title: "degradation test",
		Columns: []string{"app", "OptTLP", "MaxTLP"}}
	for _, p := range []workloads.Profile{good, bad} {
		s.perApp(tab, p.Abbr, func() error {
			a, _, err := s.Analysis(p)
			if err != nil {
				return err
			}
			tab.AddRow(p.Abbr, fmt.Sprint(a.OptTLP), fmt.Sprint(a.MaxTLP))
			return nil
		})
	}

	if len(tab.Rows) != 2 {
		t.Fatalf("table has %d rows, want 2:\n%+v", len(tab.Rows), tab.Rows)
	}
	if tab.Rows[0][0] != "TINY" || tab.Rows[0][1] == "ERROR" {
		t.Errorf("healthy app row damaged: %v", tab.Rows[0])
	}
	if tab.Rows[1][0] != "BROKEN" || tab.Rows[1][1] != "ERROR" {
		t.Errorf("broken app row = %v, want an ERROR marker", tab.Rows[1])
	}
	if len(tab.Notes) != 1 || !strings.Contains(tab.Notes[0], "BROKEN failed") {
		t.Errorf("notes = %v, want one naming the broken app", tab.Notes)
	}
	// The structured simulator fault must survive the capture intact.
	if len(s.Faults) != 1 {
		t.Fatalf("session recorded %d faults, want 1", len(s.Faults))
	}
	var f *gpusim.Fault
	if !errors.As(s.Faults[0].Err, &f) || f.Kind != gpusim.FaultExec {
		t.Errorf("recorded error %v does not unwrap to an exec fault", s.Faults[0].Err)
	}

	// And the rendered table still shows the healthy app.
	var buf strings.Builder
	tab.Render(&buf)
	out := buf.String()
	if !strings.Contains(out, "TINY") || !strings.Contains(out, "ERROR") {
		t.Errorf("rendered table incomplete:\n%s", out)
	}
}
