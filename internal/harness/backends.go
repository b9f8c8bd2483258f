package harness

import (
	"fmt"

	"crat/internal/backend"
	"crat/internal/core"
	"crat/internal/gpusim"
	"crat/internal/workloads"
)

// Backend plumbing: the head-to-head experiment evaluates every registered
// optimization backend (internal/backend) on every workload under the
// session's shared analyses, caches, and simulation memo. The crat and
// crat-local backends delegate to the equivalent comparison modes, so they
// share their evaluations with the paper figures.

// SetBackends restricts the backend set the head-to-head experiment
// sweeps (nil or empty = every registered backend). Order is preserved:
// it is the TPSC tie-break order of the union selection.
func (s *Session) SetBackends(names []string) {
	s.mu.Lock()
	s.backendNames = append([]string(nil), names...)
	s.mu.Unlock()
}

// BackendNames returns the session's enabled backend set.
func (s *Session) BackendNames() []string {
	s.mu.Lock()
	names := s.backendNames
	s.mu.Unlock()
	if len(names) == 0 {
		return backend.Names()
	}
	return append([]string(nil), names...)
}

// Backend evaluates one backend for the app (cached), under the session
// context: compile with only that backend enabled, simulate the chosen
// candidate at its TLP. The crat and crat-local backends are
// definitionally the ModeCRAT / ModeCRATLocal pipelines, so they share
// those modes' evaluations; other backends are memoized under
// "<app>/backend/<name>".
func (s *Session) Backend(p workloads.Profile, name string) (gpusim.Stats, *core.Decision, error) {
	switch name {
	case "crat":
		return s.Mode(p, core.ModeCRAT)
	case "crat-local":
		return s.Mode(p, core.ModeCRATLocal)
	}
	return s.evaluate(p, core.ModeCRAT, []string{name}, p.Abbr+"/backend/"+name)
}

// UnionWinner compiles the app once with every enabled backend competing
// under one TPSC selection and returns the winning backend's name. With
// the session's profiled OptTLP and measured costs pinned this is pure
// deterministic compilation — no simulations — so it is cached in memory
// only.
func (s *Session) UnionWinner(p workloads.Profile) (string, error) {
	ctx := s.Context()
	w, _, err := s.unionWin.Do(ctx, p.Abbr, func() (string, error) {
		a, _, err := s.Analysis(p)
		if err != nil {
			return "", err
		}
		d, err := core.OptimizeCtx(ctx, s.App(p), core.Options{
			Arch: s.Arch, Analysis: a, OptTLP: a.OptTLP, Costs: s.Costs,
			Backends: s.BackendNames()})
		if err != nil {
			return "", err
		}
		return d.Backend, nil
	})
	return w, err
}

// BackendHeadToHead is the ROADMAP item-3 figure: every enabled backend
// across all 22 workloads, reporting the analysis MaxReg and each
// backend's chosen register count, TLP, and simulated cycles, plus the
// backend the union TPSC selection would pick. The notes summarize
// per-backend selection counts and each backend's cycle geomean
// normalized to crat.
func (s *Session) BackendHeadToHead() (*Table, error) {
	return s.backendHeadToHead(workloads.All())
}

// backendHeadToHead builds the head-to-head table over the given apps
// (the determinism tests run it on a subset).
func (s *Session) backendHeadToHead(apps []workloads.Profile) (*Table, error) {
	names := s.BackendNames()
	cols := []string{"app", "MaxReg"}
	for _, name := range names {
		cols = append(cols, name+" reg", name+" TLP", name+" cycles")
	}
	cols = append(cols, "winner")
	t := &Table{
		ID:      "backends",
		Title:   "Optimization-backend head-to-head across all workloads",
		Columns: cols,
	}
	type perBackend struct {
		reg, tlp int
		cycles   int64
	}
	wins := make(map[string]int)
	ratios := make(map[string][]float64) // cycles(crat)/cycles(b) per app
	beatCrat := make(map[string]int)
	n := 0
	s.forApps(t, apps, func(p workloads.Profile) (func(), error) {
		a, _, err := s.Analysis(p)
		if err != nil {
			return nil, err
		}
		rs := make([]perBackend, len(names))
		cratCycles := int64(0)
		for i, name := range names {
			st, d, err := s.Backend(p, name)
			if err != nil {
				return nil, fmt.Errorf("backend %s: %w", name, err)
			}
			rs[i] = perBackend{reg: d.Chosen.UsedRegs(), tlp: d.Chosen.TLP, cycles: st.Cycles}
			if name == "crat" {
				cratCycles = st.Cycles
			}
		}
		winner, err := s.UnionWinner(p)
		if err != nil {
			return nil, err
		}
		return func() {
			row := []string{p.Abbr, fmt.Sprint(a.MaxReg)}
			for i, name := range names {
				row = append(row, fmt.Sprint(rs[i].reg), fmt.Sprint(rs[i].tlp), fmt.Sprint(rs[i].cycles))
				if cratCycles > 0 && rs[i].cycles > 0 {
					ratios[name] = append(ratios[name], float64(cratCycles)/float64(rs[i].cycles))
					if name != "crat" && rs[i].cycles < cratCycles {
						beatCrat[name]++
					}
				}
			}
			row = append(row, winner)
			t.AddRow(row...)
			wins[winner]++
			n++
		}, nil
	})
	winNote := "union TPSC selection wins:"
	geoNote := "cycle geomean vs crat:"
	beatNote := "workloads faster than crat:"
	for _, name := range names {
		winNote += fmt.Sprintf(" %s=%d", name, wins[name])
		geoNote += fmt.Sprintf(" %s=%s", name, f(Geomean(ratios[name])))
		if name != "crat" {
			beatNote += fmt.Sprintf(" %s=%d", name, beatCrat[name])
		}
	}
	t.Notes = append(t.Notes,
		fmt.Sprintf("%s (%d apps)", winNote, n),
		geoNote,
		beatNote,
		"crat/crat-local: allocate then relocate spill sub-stacks (paper); regdem: demote registers to shared memory before allocation (Sakdhnagool et al.)")
	return t, nil
}
