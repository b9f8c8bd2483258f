package main

import (
	"context"
	"fmt"
	"sort"
	"sync"

	"crat/internal/backend"
	"crat/internal/cfg"
	"crat/internal/checkpoint"
	"crat/internal/core"
	"crat/internal/emu"
	"crat/internal/gpusim"
	"crat/internal/oracle"
	"crat/internal/passes"
	"crat/internal/pool"
	"crat/internal/ptx"
	"crat/internal/regalloc"
	"crat/internal/server"
)

// A staged replay pushes the input of one opaque op through the layers'
// public functions in pipeline order, with a span around every call, and
// must arrive at the decision the opaque op made. Spans fall in two
// groups under the op:
//
//	bench.chain   the stages that together redo what the opaque op did;
//	              their sum is compared with the op's own time
//	              (core.staged_cover_frac)
//	bench.probes  extra calls into functions the chain only reaches
//	              indirectly (cfg, passes.Shared, MaxReg, each backend's
//	              Candidates, emu); they duplicate work and are kept out
//	              of the sum
//
// Passes run inside core and regalloc are reached through the pass
// manager's process-wide Wrap hook, which is why replays run one at a
// time, after the measured phase.
const (
	spanOpaque = "bench.opaque"
	spanChain  = "bench.chain"
	spanProbes = "bench.probes"
)

// stager records the spans of serial staged replays. stack holds the open
// spans; the top is the parent of the next one.
type stager struct {
	tr    *tracer
	op    int64
	stack []int64
}

func (s *stager) top() int64 {
	if len(s.stack) == 0 {
		return 0
	}
	return s.stack[len(s.stack)-1]
}

// span runs fn inside a span named name and returns fn's error as is.
func (s *stager) span(name string, fn func() error) error {
	sp := s.tr.begin(s.op, s.top(), name)
	s.stack = append(s.stack, sp.id)
	err := fn()
	s.stack = s.stack[:len(s.stack)-1]
	sp.end()
	return err
}

// do is span for the replay's own stages: an error names its stage.
func (s *stager) do(name string, fn func() error) error {
	if err := s.span(name, fn); err != nil {
		return fmt.Errorf("%s: %w", name, err)
	}
	return nil
}

// passSpan names the span of one pipeline pass after the layer that owns
// the pass.
func passSpan(pass string) string {
	switch pass {
	case "prune":
		return "core.prune"
	case "tpsc-select", "oracle-select":
		return "core.select"
	case "coalesce":
		return "regalloc.coalesce"
	case "color":
		return "regalloc.color"
	case "spill-insert":
		return "regalloc.spill_insert"
	case "phys-rewrite":
		return "regalloc.phys_rewrite"
	case "shm-knapsack":
		return "spillopt.knapsack"
	case "regdem-demote":
		return "backend.regdem_demote"
	}
	return "passes." + pass
}

// spanPass wraps a pass so that its Run is a span.
type spanPass struct {
	passes.Pass
	s *stager
}

// Run hands the pass's error back untouched: the pass manager's callers
// match on sentinel errors such as regalloc.ErrInfeasible.
func (p spanPass) Run(k *ptx.Kernel, am *passes.AnalysisManager) error {
	return p.s.span(passSpan(p.Name()), func() error { return p.Pass.Run(k, am) })
}

func (p spanPass) Unwrap() passes.Pass { return p.Pass }

// hook installs the stager as the process-wide pass decorator; the
// returned function removes it.
func (s *stager) hook() func() {
	passes.SetGlobalWrap(func(p passes.Pass) passes.Pass { return spanPass{Pass: p, s: s} })
	return func() { passes.SetGlobalWrap(nil) }
}

// prunePoints repeats core's design-space pruning (rightmost register
// point of each occupancy stair, TLP capped at OptTLP, duplicate budgets
// dropped) so that a backend's Candidates can be called directly. The
// replay checks that the points yield exactly the candidates core built.
func prunePoints(a *core.Analysis, arch gpusim.Config) []backend.Point {
	stairs := a.Staircase(arch)
	tlps := make([]int, 0, len(stairs))
	for t := range stairs {
		tlps = append(tlps, t)
	}
	sort.Sort(sort.Reverse(sort.IntSlice(tlps)))
	var pts []backend.Point
	seen := make(map[int]bool)
	for _, t := range tlps {
		if reg := stairs[t]; t <= a.OptTLP && !seen[reg] {
			seen[reg] = true
			pts = append(pts, backend.Point{Reg: reg, TLP: t})
		}
	}
	return pts
}

// counts are the work counters of one staged replay that no span carries.
type counts struct {
	parseInsts     int
	candidates     int
	pointsOffered  int
	demotedRegs    int
	spilledRegs    int
	shmBytesPlaced int64
	oracleRuns     int
	emuWarpInsts   int64
	profileRuns    int
	simWarpInsts   int64        // every gpusim run of the op
	winner         gpusim.Stats // the CRAT winner's simulation (paper_suite)
}

// probeKernel runs the probes every workload shares on a clone of k, so
// that nothing they memoise by kernel pointer is warm for the chain.
func (s *stager) probeKernel(k *ptx.Kernel) error {
	k = k.Clone()
	var g *cfg.Graph
	if err := s.do("cfg.build", func() (err error) { g, err = cfg.Build(k); return }); err != nil {
		return err
	}
	s.do("cfg.liveness", func() error { cfg.ComputeLiveness(g); return nil })
	if err := s.do("passes.shared_cold", func() error { _, err := passes.Shared(k); return err }); err != nil {
		return err
	}
	return s.do("regalloc.maxreg", func() error { _, err := regalloc.MaxReg(k); return err })
}

// probeBackends calls each enabled backend's Candidates over the pruned
// points and checks that together they rebuild core's candidate list.
func (s *stager) probeBackends(app core.App, arch gpusim.Config, d *core.Decision, names []string, c *counts) error {
	a := d.Analysis
	req := backend.Request{
		AppName: app.Name, Kernel: app.Kernel, Arch: arch,
		BlockSize: a.BlockSize, ShmSize: a.ShmSize, OptTLP: a.OptTLP,
		Points: prunePoints(a, arch),
	}
	total := 0
	for _, name := range names {
		bk, ok := backend.Lookup(name)
		if !ok {
			return fmt.Errorf("backend %q is not registered", name)
		}
		var cands []backend.Candidate
		err := s.do("backend."+name+".candidates", func() (err error) {
			cands, err = bk.Candidates(&passes.Manager{}, req)
			return
		})
		if err != nil {
			return err
		}
		total += len(cands)
		c.pointsOffered += len(req.Points)
		for _, cand := range cands {
			c.demotedRegs += cand.Demoted
		}
	}
	if total != len(d.Candidates) {
		return fmt.Errorf("%s: the backends built %d candidates from the pruned points, core built %d", app.Name, total, len(d.Candidates))
	}
	c.candidates += total
	return nil
}

func noteDecision(d *core.Decision, c *counts) {
	c.spilledRegs += len(d.Chosen.Alloc.Spills)
	if d.Chosen.Spill != nil {
		c.shmBytesPlaced += d.Chosen.Spill.SharedSpillBytes
	}
}

// cacheKeyShape has the fields and sizes of the content address cratd
// hashes per request, so checkpoint.Hash is timed on a realistic value.
type cacheKeyShape struct {
	Schema, PTX, Kernel, Arch string
	Block, Grid, OptTLP       int
	NoShared, Coalesce        bool
	Backends                  []string
	Verify                    bool
	VerifyRuns                int
	VerifySeed                int64
}

// compileChain replays one service compile: the body of cratd's
// compileOnce plus the cache's write side.
func (s *stager) compileChain(r request, costs map[string]gpusim.Costs, store *checkpoint.Store, c *counts) (outcome, error) {
	var out outcome
	req := r.req
	arch := gpusim.FermiConfig()
	if req.Arch == "kepler" {
		arch = gpusim.KeplerConfig()
	}
	grid := max(req.Grid, 1)

	var module *ptx.Module
	var kernel *ptx.Kernel
	var a *core.Analysis
	var d *core.Decision
	var entry server.CompileResponse
	var key string
	err := s.do(spanChain, func() error {
		if err := s.do("ptx.parse", func() (err error) { module, err = ptx.ParseModule(req.PTX); return }); err != nil {
			return err
		}
		if len(module.Kernels) != 1 {
			return fmt.Errorf("the body holds %d kernels", len(module.Kernels))
		}
		kernel = module.Kernels[0]
		c.parseInsts += len(kernel.Insts)
		if err := s.do("ptx.verify", func() error {
			if err := kernel.Validate(); err != nil {
				return err
			}
			return ptx.Verify(kernel, "input")
		}); err != nil {
			return err
		}
		app := core.App{Name: kernel.Name, Kernel: kernel, Block: req.Block, Grid: grid}
		if err := s.do("core.analyze", func() (err error) { a, err = core.Analyze(app, arch); return }); err != nil {
			return err
		}
		if err := s.do("core.optimize", func() (err error) {
			d, err = core.OptimizeCtx(context.Background(), app, core.Options{
				Arch: arch, OptTLP: a.MaxTLP, SpillShared: true, Backends: req.Backends, Costs: costs[arch.Name],
			})
			return
		}); err != nil {
			return err
		}
		if err := s.do("oracle.check", func() error {
			div, err := oracle.CheckChain(kernel, d.Chosen.Alloc.Kernel, d.Chosen.Kernel(),
				oracle.Options{Grid: grid, Block: req.Block, Runs: req.VerifyRuns, Seed: req.VerifySeed})
			if err == nil && div != nil {
				err = div
			}
			return err
		}); err != nil {
			return err
		}
		c.oracleRuns += oracle.DefaultRuns
		s.do("ptx.print", func() error {
			for i, k := range module.Kernels {
				if k == kernel {
					module.Kernels[i] = d.Chosen.Kernel()
				}
			}
			entry = server.CompileResponse{
				Kernel: kernel.Name, Arch: arch.Name, Reg: d.Chosen.UsedRegs(), TLP: d.Chosen.TLP,
				Candidates: len(d.Candidates), Backend: d.Backend, PTX: ptx.PrintModule(module),
			}
			return nil
		})
		if err := s.do("checkpoint.hash", func() (err error) {
			key, err = checkpoint.Hash(cacheKeyShape{"cratbench", req.PTX, req.Kernel, arch.Name, req.Block, grid,
				req.OptTLP, false, false, req.Backends, true, req.VerifyRuns, req.VerifySeed})
			return
		}); err != nil {
			return err
		}
		return s.do("checkpoint.put", func() error { return store.Put(key, &entry) })
	})
	if err != nil {
		return out, err
	}
	noteDecision(d, c)
	out = outcome{Reg: entry.Reg, TLP: entry.TLP, Backend: entry.Backend, PTXSum: ptxSum(entry.PTX)}

	err = s.do(spanProbes, func() error {
		if err := s.probeKernel(kernel); err != nil {
			return err
		}
		app := core.App{Name: kernel.Name, Kernel: kernel, Block: req.Block, Grid: grid}
		if err := s.probeBackends(app, arch, d, req.Backends, c); err != nil {
			return err
		}
		var mem *gpusim.Memory
		var params []uint64
		s.do("oracle.gen_inputs", func() error {
			mem, params = oracle.GenInputs(kernel, grid, req.Block, req.VerifySeed)
			return nil
		})
		if err := s.do("emu.run", func() error {
			res, err := emu.Run(emu.Launch{Kernel: kernel, Grid: grid, Block: req.Block, Params: params}, mem)
			if err == nil {
				c.emuWarpInsts += res.WarpInsts
			}
			return err
		}); err != nil {
			return err
		}
		return s.do("checkpoint.get", func() error {
			var got server.CompileResponse
			ok, err := store.Get(key, &got)
			if err == nil && (!ok || got.PTX != entry.PTX) {
				err = fmt.Errorf("the store did not return what was put under %.12s", key)
			}
			return err
		})
	})
	return out, err
}

// paperOutcome is what one paper_suite op decides and measures.
type paperOutcome struct {
	outcome
	OptTLP     int
	BaseCycles int64 // OptTLP mode
	Cycles     int64 // CRAT mode
	WarpInsts  int64 // CRAT mode
}

// simulate is one gpusim run as a span under parent.
func (s *stager) simulate(parent int64, app core.App, arch gpusim.Config, k *ptx.Kernel, regs, tlp int) (gpusim.Stats, error) {
	sp := s.tr.begin(s.op, parent, "gpusim.run")
	st, err := core.SimulateKernelCtx(context.Background(), app, arch, k, regs, tlp)
	sp.end()
	return st, err
}

// paperChain replays what Session.Mode(OptTLP) + Session.Mode(CRAT) do
// for one app: analysis, the profiling sweep (the default allocation
// simulated at every TLP, fanned over `workers` goroutines exactly as
// core.ProfileOptTLPNCtx does), the OptTLP baseline build and run, the
// CRAT pipeline with OptTLP and costs pinned, and the winner's run.
func (s *stager) paperChain(app core.App, arch gpusim.Config, costs gpusim.Costs, workers int, c *counts) (paperOutcome, error) {
	var out paperOutcome
	var a *core.Analysis
	var d *core.Decision
	var mu sync.Mutex
	err := s.do(spanChain, func() error {
		if err := s.do("ptx.verify", func() error { return ptx.Verify(app.Kernel, "input") }); err != nil {
			return err
		}
		if err := s.do("core.analyze", func() (err error) { a, err = core.Analyze(app, arch); return }); err != nil {
			return err
		}
		if err := s.do("core.profile", func() error {
			var alloc *regalloc.Result
			if err := s.do("regalloc.allocate", func() (err error) {
				alloc, err = regalloc.Allocate(app.Kernel, regalloc.Options{Regs: a.DefaultReg})
				return
			}); err != nil {
				return err
			}
			parent := s.top()
			runs := make([]gpusim.Stats, a.MaxTLP)
			errs := make([]error, a.MaxTLP)
			pool.Run(workers, a.MaxTLP, func(i int) {
				runs[i], errs[i] = s.simulate(parent, app, arch, alloc.Kernel, alloc.UsedRegs, i+1)
				mu.Lock()
				c.simWarpInsts += runs[i].WarpInsts
				mu.Unlock()
			})
			for i, st := range runs {
				if errs[i] != nil {
					return errs[i]
				}
				if i == 0 || st.Cycles < runs[out.OptTLP-1].Cycles {
					out.OptTLP = i + 1
				}
			}
			c.profileRuns += len(runs)
			return nil
		}); err != nil {
			return err
		}
		// Mode(OptTLP): analysis again, the default allocation, one run.
		if err := s.do("core.analyze", func() error { _, err := core.Analyze(app, arch); return err }); err != nil {
			return err
		}
		var base *regalloc.Result
		if err := s.do("regalloc.allocate", func() (err error) {
			base, err = regalloc.Allocate(app.Kernel, regalloc.Options{Regs: a.DefaultReg})
			return
		}); err != nil {
			return err
		}
		st, err := s.simulate(s.top(), app, arch, base.Kernel, base.UsedRegs, out.OptTLP)
		if err != nil {
			return err
		}
		out.BaseCycles = st.Cycles
		c.simWarpInsts += st.WarpInsts
		// Mode(CRAT).
		if err := s.do("core.optimize", func() (err error) {
			d, err = core.OptimizeCtx(context.Background(), app, core.Options{
				Arch: arch, OptTLP: out.OptTLP, SpillShared: true, Costs: costs, Workers: workers,
			})
			return
		}); err != nil {
			return err
		}
		st, err = s.simulate(s.top(), app, arch, d.Chosen.Kernel(), d.Chosen.UsedRegs(), d.Chosen.TLP)
		if err != nil {
			return err
		}
		out.Cycles, out.WarpInsts = st.Cycles, st.WarpInsts
		c.simWarpInsts += st.WarpInsts
		c.winner = addStats(c.winner, st)
		return nil
	})
	if err != nil {
		return out, err
	}
	noteDecision(d, c)
	out.outcome = decisionOutcome(d)

	err = s.do(spanProbes, func() error {
		var text string
		s.do("ptx.print", func() error { text = ptx.Print(app.Kernel); return nil })
		if err := s.do("ptx.parse", func() error {
			k, err := ptx.Parse(text)
			if err == nil {
				c.parseInsts += len(k.Insts)
			}
			return err
		}); err != nil {
			return err
		}
		if err := s.probeKernel(app.Kernel); err != nil {
			return err
		}
		return s.probeBackends(app, arch, d, []string{"crat"}, c)
	})
	return out, err
}

func decisionOutcome(d *core.Decision) outcome {
	return outcome{Reg: d.Chosen.UsedRegs(), TLP: d.Chosen.TLP, Backend: d.Backend, PTXSum: ptxSum(ptx.Print(d.Chosen.Kernel()))}
}

// addStats accumulates the simulated counters the per-layer table reads.
func addStats(a, b gpusim.Stats) gpusim.Stats {
	a.Cycles += b.Cycles
	a.WarpInsts += b.WarpInsts
	a.L1Accesses += b.L1Accesses
	a.L1Hits += b.L1Hits
	a.IssuedSlots += b.IssuedSlots
	a.StallCongestion += b.StallCongestion
	a.StallMemData += b.StallMemData
	a.StallALU += b.StallALU
	a.StallBarrier += b.StallBarrier
	a.StallEmpty += b.StallEmpty
	return a
}
