package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"time"

	"crat/internal/core"
	"crat/internal/gpusim"
	"crat/internal/harness"
	"crat/internal/oracle"
	"crat/internal/workloads"
)

// expectedApp is one app's simulated result at the commit the benchmark
// was added: the pin that gpusim.stat_drift_apps compares against. A
// change that only makes the simulator or compiler faster must leave
// every field as it is.
type expectedApp struct {
	OptTLP     int    `json:"opt_tlp"`
	BaseCycles int64  `json:"opttlp_cycles"`
	Cycles     int64  `json:"crat_cycles"`
	WarpInsts  int64  `json:"crat_warp_insts"`
	Reg        int    `json:"reg"`
	TLP        int    `json:"tlp"`
	Backend    string `json:"backend"`
}

//go:embed expected/paper_suite.json
var expectedJSON []byte

func loadExpected() (map[string]expectedApp, error) {
	var doc struct {
		Apps map[string]expectedApp `json:"apps"`
	}
	if err := json.Unmarshal(expectedJSON, &doc); err != nil {
		return nil, fmt.Errorf("expected/paper_suite.json: %w", err)
	}
	return doc.Apps, nil
}

func observed(o paperOutcome) expectedApp {
	return expectedApp{OptTLP: o.OptTLP, BaseCycles: o.BaseCycles, Cycles: o.Cycles, WarpInsts: o.WarpInsts,
		Reg: o.Reg, TLP: o.TLP, Backend: o.Backend}
}

type paperEnv struct {
	profiles []workloads.Profile
	expected map[string]expectedApp
}

// paperWarm are the apps set-up runs through a throwaway session so that
// the Go runtime's heap and the simulator's lazily built tables are in
// place before the first timed op: the lightest of each class, and enough
// of them that setup_s is a third of a second, not a handful of
// milliseconds whose median would move by its bound on its own.
var paperWarm = []string{"BFS", "GAU", "PATH", "LBM", "SGM"}

func setupPaper(cfg *config) (*paperEnv, error) {
	e := &paperEnv{profiles: workloads.All()}
	if cfg.quick {
		e.profiles = nil
		for _, abbr := range []string{"LBM", "BFS"} {
			p, _ := workloads.ByAbbr(abbr)
			e.profiles = append(e.profiles, p)
		}
	}
	var err error
	if e.expected, err = loadExpected(); err != nil {
		return nil, err
	}
	s, err := harness.NewSession(gpusim.FermiConfig())
	if err != nil {
		return nil, err
	}
	s.SetWorkers(cfg.clients)
	for _, abbr := range paperWarm {
		p, ok := workloads.ByAbbr(abbr)
		if !ok {
			return nil, fmt.Errorf("no Table-3 app %q", abbr)
		}
		if _, _, err := s.Mode(p, core.ModeCRAT); err != nil {
			return nil, fmt.Errorf("warm-up %s: %w", abbr, err)
		}
	}
	return e, nil
}

// paperRounds is the least number of passes over the 22 apps: with 44
// samples p75 has the eleven beyond it that make it admissible.
const paperRounds = 2

// Half of the apps take under 150 ms, and the median app is one of them:
// op_p50_ms would be two 125 ms samples of one app, as steady as the
// machine was during that quarter of a second. After the full passes the
// light apps get paperLightRounds more (under a second each), so that the
// median app's latency is a median of five.
const (
	paperLightMS     = 150
	paperLightRounds = 3
)

// paperOp is the opaque result of one op.
type paperOp struct {
	app   core.App
	baseD *core.Decision
	d     *core.Decision
	out   paperOutcome
}

func (o paperOp) digest() string {
	return fmt.Sprintf("%+v", o.out)
}

// runPaperSuite drives the evaluation the way cmd/experiments does: a
// fresh harness.Session per pass, one op per Table-3 app = the OptTLP
// baseline plus the full CRAT pipeline, each with its simulations. Ops
// run one at a time and each fans its profiling sweep over `clients`
// workers: two ops at once would make an op's latency depend on which
// neighbour it happened to share the cores with.
func runPaperSuite(cfg *config, tr *tracer) (*result, error) {
	chk := newChecker()
	res := &result{tailLimit: 75, extra: map[string]float64{}}
	env, err := repeatSetup(cfg, res, func() (*paperEnv, error) { return setupPaper(cfg) },
		func(*paperEnv) error { return nil })
	if err != nil {
		return nil, err
	}

	rounds := paperRounds
	if cfg.quick || cfg.trace {
		rounds = 1
	}
	rng := rand.New(rand.NewSource(cfg.seed))
	last := make([]paperOp, len(env.profiles))
	opaque := make([]time.Duration, len(env.profiles))
	lats := make([][]float64, len(env.profiles))
	var ph phase
	// pass runs the listed apps once, in seeded order, on a fresh session.
	pass := func(apps []int) error {
		s, err := harness.NewSession(gpusim.FermiConfig())
		if err != nil {
			return err
		}
		s.SetWorkers(cfg.clients)
		for _, j := range rng.Perm(len(apps)) {
			i := apps[j]
			p := env.profiles[i]
			sp := tr.begin(int64(i+1), 0, "harness.mode_pair")
			start := time.Now()
			base, baseD, err1 := s.Mode(p, core.ModeOptTLP)
			crat, d, err2 := s.Mode(p, core.ModeCRAT)
			lat := time.Since(start)
			sp.end()
			lats[i] = append(lats[i], ms(lat))
			ph.window += lat
			ph.ops++
			if err1 != nil || err2 != nil {
				chk.fail("%s: OptTLP: %v; CRAT: %v", p.Abbr, err1, err2)
				continue
			}
			op := paperOp{app: s.App(p), baseD: baseD, d: d, out: paperOutcome{
				outcome: decisionOutcome(d), OptTLP: d.Analysis.OptTLP,
				BaseCycles: base.Cycles, Cycles: crat.Cycles, WarpInsts: crat.WarpInsts,
			}}
			if chk.served(i, op.digest()) {
				last[i], opaque[i] = op, lat
			}
		}
		return nil
	}
	all := make([]int, len(env.profiles))
	for i := range all {
		all[i] = i
	}
	cpu0 := cpuTime()
	for r := 0; r < rounds || ph.window < cfg.window(); r++ {
		if err := pass(all); err != nil {
			return nil, err
		}
	}
	// Throughput and CPU cost are those of the full passes: the extra
	// rounds below would tilt both towards the light apps.
	ph.inWin, ph.cpuOps, ph.cpu = ph.ops, ph.ops, cpuTime()-cpu0
	fullOps, fullTime := ph.ops, ph.window
	if !cfg.quick && !cfg.trace {
		var light []int
		for i, l := range lats {
			if len(l) > 0 && median(l) < paperLightMS {
				light = append(light, i)
			}
		}
		for r := 0; r < paperLightRounds; r++ {
			if err := pass(light); err != nil {
				return nil, err
			}
		}
	}
	ph.window = fullTime
	// The op list is fixed and repeated, so an app's latency is the median
	// of its repeats and the percentiles run over the 22 apps. Taken over
	// the 44 raw samples, p75 fell between two apps' pairs of samples and
	// flipped from one app to the other with the machine's drift.
	for _, l := range lats {
		if len(l) > 0 {
			ph.latMS = append(ph.latMS, median(l))
		}
	}
	res.extra["light_app_repeats"] = float64(ph.ops - fullOps)
	res.phase = ph

	// Output checks, outside the timed region: both kernels an op ran
	// against the untouched input kernel on the app's own inputs.
	var speedups []float64
	drift := 0
	for i, op := range last {
		if op.d == nil {
			continue
		}
		div, err := oracle.CheckVariants(op.app.Kernel, []oracle.Variant{
			{Stage: "OptTLP", Kernel: op.baseD.Chosen.Kernel()},
			{Stage: "CRAT", Kernel: op.d.Chosen.Kernel()},
		}, oracle.Options{Grid: op.app.Grid, Block: op.app.Block, Setup: op.app.Setup})
		if err == nil && div != nil {
			err = div
		}
		if err != nil {
			chk.fail("%s: output check: %v", op.app.Name, err)
		}
		res.checked += 2
		if env.profiles[i].Sensitive {
			speedups = append(speedups, float64(op.out.BaseCycles)/float64(op.out.Cycles))
		}
		if want, ok := env.expected[op.app.Name]; !ok || want != observed(op.out) {
			drift++
			fmt.Printf("drift: %s expected %+v observed %+v\n", op.app.Name, want, observed(op.out))
		}
	}
	res.extra["sim_speedup_geomean"] = harness.Geomean(speedups)
	res.extra["stat_drift_apps"] = float64(drift)

	if tr != nil {
		if err := tracePaper(cfg, tr, res, env, last, opaque, chk); err != nil {
			return nil, err
		}
		res.layers["harness.sim_speedup_geomean"] = harness.Geomean(speedups)
		res.layers["gpusim.stat_drift_apps"] = float64(drift)
	}
	res.failed = chk.failures()
	return res, nil
}

// tracePaper replays every app stage by stage and fills the per-layer
// metrics.
func tracePaper(cfg *config, tr *tracer, res *result, env *paperEnv, last []paperOp, opaque []time.Duration, chk *checker) error {
	arch := gpusim.FermiConfig()
	st := &stager{tr: tr}
	var costs gpusim.Costs
	sp := tr.begin(0, 0, "gpusim.measure_costs")
	costs, err := gpusim.MeasureCosts(arch)
	costsDur := sp.end()
	if err != nil {
		return err
	}

	defer st.hook()()
	var c counts
	var ops []time.Duration
	seen := make(map[string]expectedApp)
	for i, p := range env.profiles {
		if last[i].d == nil {
			continue
		}
		st.op = int64(i + 1)
		got, err := st.paperChain(p.App(), arch, costs, cfg.clients, &c)
		if err != nil {
			return fmt.Errorf("staged replay of %s: %w", p.Abbr, err)
		}
		if got != last[i].out {
			chk.fail("%s: the staged replay decided %+v, the opaque op %+v", p.Abbr, got, last[i].out)
		}
		ops = append(ops, opaque[i])
		seen[p.Abbr] = observed(got)
	}

	spans := tr.snapshot()
	t := newTally(spans, ops)
	m := make(map[string]float64)
	t.compilerMetrics(m, &c)
	m["gpusim.measure_costs_ms"] = ms(costsDur)
	m["harness.session_overhead_ms"] = t.unexplainedMS()
	t.selfFracs(m, "harness", 1)
	m["trace.overhead_frac"] = overheadFrac(res.phase)
	res.layers = m

	// What this commit simulates, in the expected file's format: copy it
	// over expected/paper_suite.json after an intended model change.
	doc, err := json.MarshalIndent(map[string]any{"arch": arch.Name, "apps": seen}, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(cfg.out, "paper_suite.observed.json"), append(doc, '\n'), 0o644)
}

// overheadFrac is the share of the measured phase that went into
// recording spans: one span per op times the calibrated cost of recording
// a span, over the phase's op time. The benchmark only records from
// outside, so this is all the tracing the measured phase carries.
func overheadFrac(ph phase) float64 {
	return ratio(float64(len(ph.latMS))*ms(spanCost()), sum(ph.latMS))
}
