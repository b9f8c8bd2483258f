package harness

import (
	"fmt"
	"time"

	"crat/internal/core"
	"crat/internal/workloads"
)

// Figure17 evaluates CRAT on the Kepler-like architecture (paper Figure 17:
// 1.32X geomean vs OptTLP). Call on a Session built over KeplerConfig.
func (s *Session) Figure17() (*Table, error) {
	t := &Table{
		ID:      "fig17",
		Title:   fmt.Sprintf("CRAT speedup vs OptTLP on %s (paper Fig 17)", s.Arch.Name),
		Columns: []string{"app", "CRAT speedup"},
	}
	var speeds []float64
	s.forApps(t, workloads.Sensitive(), func(p workloads.Profile) (func(), error) {
		sp, err := s.Speedup(p, core.ModeCRAT)
		if err != nil {
			return nil, err
		}
		return func() {
			speeds = append(speeds, sp)
			t.AddRow(p.Abbr, f(sp))
		}, nil
	})
	t.AddRow("GEOMEAN", f(Geomean(speeds)))
	t.Notes = append(t.Notes, "paper: 1.32X geomean on Kepler (vs 1.25X on Fermi); the larger register file shrinks some gains (LBM, FDTD, CFD) and the higher thread limit grows others (SPMV, HST, BLK, STE)")
	return t, nil
}

// Figure18 is the input-sensitivity study (paper §7.4, Figure 18): CFD and
// BLK across 3 inputs each; the decision profiled on the default input is
// applied to every input and compared to that input's own OptTLP baseline.
func (s *Session) Figure18() (*Table, error) {
	t := &Table{
		ID:      "fig18",
		Title:   "CRAT speedup across inputs (paper Fig 18)",
		Columns: []string{"app", "input", "OptTLP (profiled)", "CRAT speedup"},
	}
	var profiles []workloads.Profile
	for _, abbr := range []string{"CFD", "BLK"} {
		p, _ := workloads.ByAbbr(abbr)
		profiles = append(profiles, p)
	}
	s.forApps(t, profiles, func(p workloads.Profile) (func(), error) {
		// Profile the decision on the default input.
		a, _, err := s.Analysis(p)
		if err != nil {
			return nil, err
		}
		_, d, err := s.Mode(p, core.ModeCRAT)
		if err != nil {
			return nil, err
		}
		var rows [][]string
		for _, in := range workloads.InputsFor(p.Abbr) {
			app := p.AppWithInput(in)
			// Per-input OptTLP baseline at the default allocation.
			ai, err := core.Analyze(app, s.Arch)
			if err != nil {
				return nil, err
			}
			opt, runs, err := core.ProfileOptTLPNCtx(s.Context(), app, s.Arch, ai, s.Workers(), s.simulate)
			if err != nil {
				return nil, err
			}
			baseSt := runs[opt-1] // the OptTLP baseline is the sweep's run at OptTLP
			// Apply the default-input decision (same kernel; inputs share
			// the kernel, only the launch differs).
			st, err := s.simulate(s.Context(), app, s.Arch, d.Chosen.Kernel(), d.Chosen.UsedRegs(), d.Chosen.TLP)
			if err != nil {
				return nil, err
			}
			rows = append(rows, []string{p.Abbr, in.Name, fmt.Sprint(a.OptTLP),
				f(float64(baseSt.Cycles) / float64(st.Cycles))})
		}
		return func() {
			for _, r := range rows {
				t.AddRow(r...)
			}
		}, nil
	})
	t.Notes = append(t.Notes,
		"paper: different profiling inputs give the same OptTLP; CRAT's speedup holds across inputs")
	return t, nil
}

// Figure19 evaluates the resource-insensitive applications (paper Figure
// 19: neither OptTLP nor CRAT moves them).
func (s *Session) Figure19() (*Table, error) {
	t := &Table{
		ID:      "fig19",
		Title:   "Resource-insensitive applications, normalized to OptTLP (paper Fig 19)",
		Columns: []string{"app", "MaxTLP", "OptTLP", "CRAT"},
	}
	var maxs, crats []float64
	s.forApps(t, workloads.Insensitive(), func(p workloads.Profile) (func(), error) {
		spMax, err := s.Speedup(p, core.ModeMaxTLP)
		if err != nil {
			return nil, err
		}
		spCrat, err := s.Speedup(p, core.ModeCRAT)
		if err != nil {
			return nil, err
		}
		return func() {
			maxs = append(maxs, spMax)
			crats = append(crats, spCrat)
			t.AddRow(p.Abbr, f(spMax), "1.000", f(spCrat))
		}, nil
	})
	t.AddRow("GEOMEAN", f(Geomean(maxs)), "1.000", f(Geomean(crats)))
	t.Notes = append(t.Notes, "paper: no remarkable improvement for either technique on this class")
	return t, nil
}

// Figure20 compares CRAT-profile with CRAT-static (paper Figure 20 / §7.6:
// 1.22X vs 1.25X geomean).
func (s *Session) Figure20() (*Table, error) {
	t := &Table{
		ID:      "fig20",
		Title:   "CRAT-profile vs CRAT-static (paper Fig 20)",
		Columns: []string{"app", "OptTLP profiled", "OptTLP static", "CRAT-profile", "CRAT-static"},
	}
	var profs, stats []float64
	s.forApps(t, workloads.Sensitive(), func(p workloads.Profile) (func(), error) {
		a, _, err := s.Analysis(p)
		if err != nil {
			return nil, err
		}
		spProf, err := s.Speedup(p, core.ModeCRAT)
		if err != nil {
			return nil, err
		}
		app := s.App(p)
		in, err := core.MeasureStaticInputs(s.Context(), app, s.Arch, a, s.simulate)
		if err != nil {
			return nil, err
		}
		optStatic := core.EstimateOptTLP(a, s.Arch, in)
		stStatic, _, err := s.runMode(app, core.ModeCRAT, core.Options{Arch: s.Arch, Analysis: a, OptTLP: optStatic, Costs: s.Costs})
		if err != nil {
			return nil, err
		}
		base, _, err := s.Mode(p, core.ModeOptTLP)
		if err != nil {
			return nil, err
		}
		spStatic := float64(base.Cycles) / float64(stStatic.Cycles)
		return func() {
			profs = append(profs, spProf)
			stats = append(stats, spStatic)
			t.AddRow(p.Abbr, fmt.Sprint(a.OptTLP), fmt.Sprint(optStatic), f(spProf), f(spStatic))
		}, nil
	})
	t.AddRow("GEOMEAN", "", "", f(Geomean(profs)), f(Geomean(stats)))
	t.Notes = append(t.Notes, "paper: CRAT-static achieves 1.22X vs CRAT-profile's 1.25X")
	return t, nil
}

// Overhead reports the framework overhead (paper §7.7): profiling
// simulations per app and the wall-clock of profiled vs static OptTLP.
// It simulates directly, past the session memo: the walls it reports are
// those of real simulations.
func (s *Session) Overhead() (*Table, error) {
	t := &Table{
		ID:      "overhead",
		Title:   "CRAT overhead (paper §7.7)",
		Columns: []string{"app", "profiling sims", "profiling wall", "static wall"},
	}
	totalRuns := 0
	s.forApps(t, workloads.Sensitive(), func(p workloads.Profile) (func(), error) {
		app := s.App(p)
		a, err := core.Analyze(app, s.Arch)
		if err != nil {
			return nil, err
		}
		startP := time.Now()
		_, runs, err := core.ProfileOptTLPNCtx(s.Context(), app, s.Arch, a, s.Workers(), core.SimulateKernelCtx)
		if err != nil {
			return nil, err
		}
		profWall := time.Since(startP)
		startS := time.Now()
		in, err := core.MeasureStaticInputs(s.Context(), app, s.Arch, a, core.SimulateKernelCtx)
		if err != nil {
			return nil, err
		}
		_ = core.EstimateOptTLP(a, s.Arch, in)
		statWall := time.Since(startS)
		return func() {
			totalRuns += len(runs)
			t.AddRow(p.Abbr, fmt.Sprint(len(runs)), profWall.Round(time.Millisecond).String(),
				statWall.Round(time.Millisecond).String())
		}, nil
	})
	t.AddRow("TOTAL", fmt.Sprint(totalRuns), "", "")
	t.Notes = append(t.Notes,
		"paper: profiling needs <= MaxTLP runs per app (avg 5, max 8); static analysis needs one cheap TLP=1 run plus ~1ms of analysis",
		"the static estimator's wall-clock is dominated by its single TLP=1 measurement run")
	return t, nil
}
