package harness

import (
	"context"
	"fmt"
	"math"
	"sync"
	"testing"

	"crat/internal/core"
	"crat/internal/gpusim"
	"crat/internal/workloads"
)

// concApps returns small synthetic profiles that keep the -race runs fast
// while still exercising profiling, allocation, and all four modes.
func concApps() []workloads.Profile {
	base := tinyProfile()
	var out []workloads.Profile
	for i, variant := range []struct {
		pressure int
		chain    int
	}{{6, 2}, {8, 3}, {10, 2}} {
		p := base
		p.Abbr = fmt.Sprintf("TINY%d", i)
		p.Pressure = variant.pressure
		p.Chain = variant.chain
		out = append(out, p)
	}
	return out
}

var concModes = []core.Mode{core.ModeMaxTLP, core.ModeOptTLP, core.ModeCRATLocal, core.ModeCRAT}

// speedupsSerial evaluates every app x mode speedup on a serial session.
func speedupsSerial(t *testing.T, apps []workloads.Profile) map[string]uint64 {
	t.Helper()
	s, err := NewSession(gpusim.FermiConfig())
	if err != nil {
		t.Fatal(err)
	}
	s.SetWorkers(1)
	out := make(map[string]uint64)
	for _, p := range apps {
		for _, m := range concModes {
			sp, err := s.Speedup(p, m)
			if err != nil {
				t.Fatalf("serial %s/%s: %v", p.Abbr, m, err)
			}
			out[p.Abbr+"/"+m.String()] = math.Float64bits(sp)
		}
	}
	return out
}

// TestSessionConcurrentSpeedup hammers one session with every app x mode
// pair from parallel goroutines and requires the results to be bit-identical
// to a fully serial session. Run under -race this also proves the
// singleflight caches synchronize correctly.
func TestSessionConcurrentSpeedup(t *testing.T) {
	apps := concApps()
	want := speedupsSerial(t, apps)

	s, err := NewSession(gpusim.FermiConfig())
	if err != nil {
		t.Fatal(err)
	}
	s.SetWorkers(4)
	type res struct {
		key  string
		bits uint64
		err  error
	}
	var wg sync.WaitGroup
	results := make(chan res, len(apps)*len(concModes)*2)
	// Two rounds per pair: the second round must hit the cache, racing the
	// first round's computations.
	for round := 0; round < 2; round++ {
		for _, p := range apps {
			for _, m := range concModes {
				wg.Add(1)
				go func(p workloads.Profile, m core.Mode) {
					defer wg.Done()
					sp, err := s.Speedup(p, m)
					results <- res{p.Abbr + "/" + m.String(), math.Float64bits(sp), err}
				}(p, m)
			}
		}
	}
	wg.Wait()
	close(results)
	for r := range results {
		if r.err != nil {
			t.Fatalf("parallel %s: %v", r.key, r.err)
		}
		if r.bits != want[r.key] {
			t.Errorf("%s: parallel %x != serial %x", r.key,
				math.Float64frombits(r.bits), math.Float64frombits(want[r.key]))
		}
	}
}

// TestSessionSimulationDedup asserts the singleflight property: no analysis
// or mode evaluation is ever computed twice, no matter how many goroutines
// request it concurrently.
func TestSessionSimulationDedup(t *testing.T) {
	apps := concApps()
	s, err := NewSession(gpusim.FermiConfig())
	if err != nil {
		t.Fatal(err)
	}
	s.SetWorkers(4)
	var wg sync.WaitGroup
	for round := 0; round < 3; round++ {
		for _, p := range apps {
			for _, m := range concModes {
				wg.Add(1)
				go func(p workloads.Profile, m core.Mode) {
					defer wg.Done()
					if _, err := s.Speedup(p, m); err != nil {
						t.Errorf("%s/%s: %v", p.Abbr, m, err)
					}
				}(p, m)
			}
		}
		wg.Wait() // between rounds every key is cached; later rounds must not recompute
	}
	for key, n := range s.computeCounts() {
		if n != 1 {
			t.Errorf("key %s computed %d times, want exactly once", key, n)
		}
	}
	// Sanity: the counters actually saw the work.
	counts := s.computeCounts()
	for _, p := range apps {
		if counts["analysis/"+p.Abbr] != 1 {
			t.Errorf("analysis/%s computed %d times", p.Abbr, counts["analysis/"+p.Abbr])
		}
		for _, m := range concModes {
			key := "mode/" + p.Abbr + "/" + m.String()
			if counts[key] != 1 {
				t.Errorf("%s computed %d times", key, counts[key])
			}
		}
	}
}

// TestForAppsMatchesSerial renders the same table body through the parallel
// forApps runner and the serial perApp loop — including a failing app — and
// requires identical rows, notes, and fault records.
func TestForAppsMatchesSerial(t *testing.T) {
	good := concApps()
	bad := tinyProfile()
	bad.Abbr = "BROKEN"
	apps := append(append([]workloads.Profile{}, good[:2]...), bad, good[2])

	build := func(s *Session, parallel bool) *Table {
		// Poison the broken app's cache so its analysis fails at simulation.
		s.apps.Do(context.Background(), bad.Abbr, func() (core.App, error) { return brokenApp(), nil })
		tab := &Table{ID: "figconc", Title: "conc", Columns: []string{"app", "OptTLP", "MaxTLP"}}
		job := func(p workloads.Profile) (func(), error) {
			a, _, err := s.Analysis(p)
			if err != nil {
				return nil, err
			}
			return func() {
				tab.AddRow(p.Abbr, fmt.Sprint(a.OptTLP), fmt.Sprint(a.MaxTLP))
			}, nil
		}
		if parallel {
			s.forApps(tab, apps, job)
			return tab
		}
		for _, p := range apps {
			s.perApp(tab, p.Abbr, func() error {
				emit, err := job(p)
				if err != nil {
					return err
				}
				emit()
				return nil
			})
		}
		return tab
	}

	sSer, err := NewSession(gpusim.FermiConfig())
	if err != nil {
		t.Fatal(err)
	}
	sSer.SetWorkers(1)
	serial := build(sSer, false)

	sPar, err := NewSession(gpusim.FermiConfig())
	if err != nil {
		t.Fatal(err)
	}
	sPar.SetWorkers(4)
	parallel := build(sPar, true)

	if len(parallel.Rows) != len(serial.Rows) {
		t.Fatalf("row count %d != %d", len(parallel.Rows), len(serial.Rows))
	}
	for i := range serial.Rows {
		for j := range serial.Rows[i] {
			if parallel.Rows[i][j] != serial.Rows[i][j] {
				t.Errorf("row %d cell %d: %q != %q", i, j, parallel.Rows[i][j], serial.Rows[i][j])
			}
		}
	}
	if len(parallel.Notes) != len(serial.Notes) || len(sPar.Faults) != len(sSer.Faults) {
		t.Errorf("notes/faults diverge: %d/%d notes, %d/%d faults",
			len(parallel.Notes), len(serial.Notes), len(sPar.Faults), len(sSer.Faults))
	}
	if len(sPar.Faults) != 1 || sPar.Faults[0].App != "BROKEN" {
		t.Errorf("parallel faults = %+v, want one for BROKEN", sPar.Faults)
	}
}
