package harness

import (
	"fmt"

	"crat/internal/core"
	"crat/internal/gpusim"
	"crat/internal/ptx"
	"crat/internal/spillopt"
	"crat/internal/workloads"
)

// ablationApps is the subset used by the ablation studies: the three apps
// with residual spills plus the most cache-sensitive one.
func ablationApps() []workloads.Profile {
	var out []workloads.Profile
	for _, abbr := range []string{"CFD", "FDTD", "STE", "KMN"} {
		p, _ := workloads.ByAbbr(abbr)
		out = append(out, p)
	}
	return out
}

// AblationScheduler compares GTO against loose round-robin at the profiled
// OptTLP: GTO is the paper's baseline scheduler (Table 2) and underpins the
// static OptTLP estimator.
func (s *Session) AblationScheduler() (*Table, error) {
	return s.ablationScheduler(ablationApps()), nil
}

// ablationScheduler builds the scheduler ablation over the given apps
// (the chaos tests run it on a subset).
func (s *Session) ablationScheduler(apps []workloads.Profile) *Table {
	t := &Table{
		ID:      "abl-sched",
		Title:   "Ablation: GTO vs LRR warp scheduling",
		Columns: []string{"app", "GTO cycles", "LRR cycles", "GTO/LRR"},
	}
	lrrArch := s.Arch
	lrrArch.Scheduler = gpusim.SchedLRR
	s.forApps(t, apps, func(p workloads.Profile) (func(), error) {
		// The LRR column simulates the kernel the GTO column ran: the
		// OptTLP decision's own, also when verification degraded it.
		gto, d, err := s.Mode(p, core.ModeOptTLP)
		if err != nil {
			return nil, err
		}
		lrr, err := s.simulate(s.Context(), s.App(p), lrrArch, d.Chosen.Kernel(), d.Chosen.UsedRegs(), core.ModeOptTLP.LaunchTLP(d))
		if err != nil {
			return nil, err
		}
		return func() {
			t.AddRow(p.Abbr, fmt.Sprint(gto.Cycles), fmt.Sprint(lrr.Cycles),
				f(float64(gto.Cycles)/float64(lrr.Cycles)))
		}, nil
	})
	return t
}

// AblationSpillCost compares the loop-depth-weighted spill-cost heuristic
// against unweighted static counts.
func (s *Session) AblationSpillCost() (*Table, error) {
	t := &Table{
		ID:      "abl-spillcost",
		Title:   "Ablation: loop-weighted vs unweighted spill cost",
		Columns: []string{"app", "weighted cycles", "unweighted cycles", "weighted speedup"},
	}
	s.forApps(t, ablationApps(), func(p workloads.Profile) (func(), error) {
		a, _, err := s.Analysis(p)
		if err != nil {
			return nil, err
		}
		weighted, _, err := s.Mode(p, core.ModeCRAT)
		if err != nil {
			return nil, err
		}
		stU, _, err := s.runMode(s.App(p), core.ModeCRAT, core.Options{
			Arch: s.Arch, Analysis: a, OptTLP: a.OptTLP, Costs: s.Costs,
			Unweighted: true,
		})
		if err != nil {
			return nil, err
		}
		return func() {
			t.AddRow(p.Abbr, fmt.Sprint(weighted.Cycles), fmt.Sprint(stU.Cycles),
				f(float64(stU.Cycles)/float64(weighted.Cycles)))
		}, nil
	})
	t.Notes = append(t.Notes, "the weighted heuristic avoids spilling loop-resident values; gains appear when hot and cold values compete")
	return t, nil
}

// AblationSubstackSplit compares Algorithm 1's by-type split against the
// whole-stack and per-variable alternatives (the paper leaves alternative
// splits as future work).
func (s *Session) AblationSubstackSplit() (*Table, error) {
	t := &Table{
		ID:      "abl-split",
		Title:   "Ablation: spill-stack splitting strategy (Algorithm 1)",
		Columns: []string{"app", "by-type", "whole-stack", "per-variable"},
	}
	s.forApps(t, ablationApps(), func(p workloads.Profile) (func(), error) {
		a, _, err := s.Analysis(p)
		if err != nil {
			return nil, err
		}
		base, _, err := s.Mode(p, core.ModeOptTLP)
		if err != nil {
			return nil, err
		}
		row := []string{p.Abbr}
		for _, split := range []spillopt.Split{spillopt.SplitByType, spillopt.SplitWhole, spillopt.SplitPerVariable} {
			st, _, err := s.runMode(s.App(p), core.ModeCRAT, core.Options{
				Arch: s.Arch, Analysis: a, OptTLP: a.OptTLP, Costs: s.Costs, Split: split,
			})
			if err != nil {
				return nil, err
			}
			row = append(row, f(float64(base.Cycles)/float64(st.Cycles)))
		}
		return func() { t.AddRow(row...) }, nil
	})
	t.Notes = append(t.Notes, "speedups vs OptTLP; finer splits can place more of the stack when spare shared memory is scarce")
	return t, nil
}

// AblationPruning verifies the §4.2 pruning: the chosen point must match
// the unpruned search while evaluating far fewer candidates.
func (s *Session) AblationPruning() (*Table, error) {
	t := &Table{
		ID:      "abl-pruning",
		Title:   "Ablation: design-space pruning (paper §4.2)",
		Columns: []string{"app", "pruned candidates", "unpruned candidates", "same choice"},
	}
	s.forApps(t, ablationApps(), func(p workloads.Profile) (func(), error) {
		a, _, err := s.Analysis(p)
		if err != nil {
			return nil, err
		}
		pruned, err := core.OptimizeCtx(s.Context(), s.App(p), core.Options{
			Arch: s.Arch, Analysis: a, OptTLP: a.OptTLP, Costs: s.Costs, SpillShared: true,
		})
		if err != nil {
			return nil, err
		}
		full, err := core.OptimizeCtx(s.Context(), s.App(p), core.Options{
			Arch: s.Arch, Analysis: a, OptTLP: a.OptTLP, Costs: s.Costs, SpillShared: true,
			DisablePruning: true,
		})
		if err != nil {
			return nil, err
		}
		same := pruned.Chosen.Reg == full.Chosen.Reg && pruned.Chosen.TLP == full.Chosen.TLP
		return func() {
			t.AddRow(p.Abbr, fmt.Sprint(len(pruned.Candidates)), fmt.Sprint(len(full.Candidates)),
				fmt.Sprint(same))
		}, nil
	})
	t.Notes = append(t.Notes, "pruning discards thrashing-TLP points; the winner is expected to survive (TPSC already penalizes low-TLP-gain points)")
	return t, nil
}

// AblationTPSC measures how close the TPSC model's pick comes to the oracle
// (exhaustive simulation of every pruned candidate).
func (s *Session) AblationTPSC() (*Table, error) {
	t := &Table{
		ID:      "abl-tpsc",
		Title:   "Ablation: TPSC model vs simulation oracle (paper §6)",
		Columns: []string{"app", "TPSC choice", "oracle choice", "TPSC cycles", "oracle cycles", "gap"},
	}
	s.forApps(t, ablationApps(), func(p workloads.Profile) (func(), error) {
		a, _, err := s.Analysis(p)
		if err != nil {
			return nil, err
		}
		opts := core.Options{Arch: s.Arch, Analysis: a, OptTLP: a.OptTLP, Costs: s.Costs, SpillShared: true, Workers: s.Workers()}
		tpsc, err := core.OptimizeCtx(s.Context(), s.App(p), opts)
		if err != nil {
			return nil, err
		}
		stT, err := s.simulate(s.Context(), s.App(p), s.Arch, tpsc.Chosen.Kernel(), tpsc.Chosen.UsedRegs(), tpsc.Chosen.TLP)
		if err != nil {
			return nil, err
		}
		// The oracle sweep simulates inside OptimizeCtx, past the session
		// memo.
		oOpts := opts
		oOpts.Oracle = true
		oracle, err := core.OptimizeCtx(s.Context(), s.App(p), oOpts)
		if err != nil {
			return nil, err
		}
		gap := float64(stT.Cycles)/float64(oracle.Chosen.Cycles) - 1
		return func() {
			t.AddRow(p.Abbr,
				fmt.Sprintf("(%d,%d)", tpsc.Chosen.Reg, tpsc.Chosen.TLP),
				fmt.Sprintf("(%d,%d)", oracle.Chosen.Reg, oracle.Chosen.TLP),
				fmt.Sprint(stT.Cycles), fmt.Sprint(oracle.Chosen.Cycles),
				fmt.Sprintf("%+.1f%%", gap*100))
		}, nil
	})
	t.Notes = append(t.Notes, "paper: 'TPSC metric can accurately capture the tradeoff between single-thread performance and TLP'")
	return t, nil
}

// AblationBypass coordinates CRAT with L1 cache bypassing (paper §8 notes
// the two compose): the CRAT-chosen kernel is run as-is and with every
// global load marked ld.global.cg. Bypassing helps thrashing access
// patterns (it spares the L1 for reusable data) and hurts cache-friendly
// ones.
func (s *Session) AblationBypass() (*Table, error) {
	t := &Table{
		ID:      "abl-bypass",
		Title:   "Ablation: CRAT with L1 cache bypassing (ld.global.cg)",
		Columns: []string{"app", "CRAT cycles", "CRAT+bypass cycles", "bypass speedup", "L1 hit", "L1 hit bypass"},
	}
	s.forApps(t, ablationApps(), func(p workloads.Profile) (func(), error) {
		base, d, err := s.Mode(p, core.ModeCRAT)
		if err != nil {
			return nil, err
		}
		k := d.Chosen.Kernel().Clone()
		for i := range k.Insts {
			in := &k.Insts[i]
			if in.Op == ptx.OpLd && in.Space == ptx.SpaceGlobal {
				in.Bypass = true
			}
		}
		st, err := s.simulate(s.Context(), s.App(p), s.Arch, k, d.Chosen.UsedRegs(), d.Chosen.TLP)
		if err != nil {
			return nil, err
		}
		return func() {
			t.AddRow(p.Abbr, fmt.Sprint(base.Cycles), fmt.Sprint(st.Cycles),
				f(float64(base.Cycles)/float64(st.Cycles)),
				f(base.L1HitRate()), f(st.L1HitRate()))
		}, nil
	})
	t.Notes = append(t.Notes, "all-loads bypassing is the bluntest policy; selective bypassing (paper refs [35-39]) would pick per-load")
	return t, nil
}
