package main

import (
	"time"

	"crat/internal/gpusim"
)

// layerMetric names one per-layer metric of the traced run.
type layerMetric struct {
	name, unit, better string
}

// perLayer is the contract of the traced run: every name is printed for
// every workload. A layer that does no work on a workload reads 0 there
// (the compiler on svc_warm, the gateway everywhere but gw_mixed); README
// says which. Times are host time per staged op unless the name says
// otherwise; "sim" marks simulated quantities, which repeat exactly.
var perLayer = []layerMetric{
	{"ptx.parse_ms", "ms", "lower"},
	{"ptx.parse_insts_per_s", "1/s", "higher"},
	{"ptx.verify_ms", "ms", "lower"},
	{"ptx.print_ms", "ms", "lower"},
	{"cfg.build_ms", "ms", "lower"},
	{"cfg.liveness_ms", "ms", "lower"},
	{"passes.shared_cold_ms", "ms", "lower"},
	{"regalloc.maxreg_ms", "ms", "lower"},
	{"regalloc.coalesce_ms", "ms", "lower"},
	{"regalloc.color_ms", "ms", "lower"},
	{"regalloc.color_runs", "count", "lower"},
	{"regalloc.spill_insert_ms", "ms", "lower"},
	{"regalloc.spill_insert_runs", "count", "lower"},
	{"regalloc.phys_rewrite_ms", "ms", "lower"},
	{"regalloc.candidates_per_color_run", "ratio", "higher"},
	{"regalloc.spilled_regs", "count", "lower"},
	{"spillopt.knapsack_ms", "ms", "lower"},
	{"spillopt.shm_bytes_placed", "B", "higher"},
	{"backend.crat.candidates_ms", "ms", "lower"},
	{"backend.regdem.candidates_ms", "ms", "lower"},
	{"backend.candidates", "count", "higher"},
	{"backend.feasible_frac", "ratio", "higher"},
	{"backend.regdem.demoted_regs", "count", "lower"},
	{"core.analyze_ms", "ms", "lower"},
	{"core.profile_ms", "ms", "lower"},
	{"core.profile_runs", "count", "lower"},
	{"core.prune_ms", "ms", "lower"},
	{"core.optimize_ms", "ms", "lower"},
	{"core.select_ms", "ms", "lower"},
	{"core.staged_cover_frac", "ratio", "higher"},
	{"gpusim.run_ms", "ms", "lower"},
	{"gpusim.warp_insts", "count", "lower"},
	{"gpusim.warp_insts_per_s", "1/s", "higher"},
	{"gpusim.cycles", "cycles", "lower"},
	{"gpusim.ipc", "ratio", "higher"},
	{"gpusim.l1_hit_rate", "ratio", "higher"},
	{"gpusim.stall_mem_frac", "ratio", "lower"},
	{"gpusim.stall_congestion_frac", "ratio", "lower"},
	{"gpusim.measure_costs_ms", "ms", "lower"},
	{"gpusim.stat_drift_apps", "count", "lower"},
	{"emu.run_ms", "ms", "lower"},
	{"emu.warp_insts_per_s", "1/s", "higher"},
	{"oracle.gen_inputs_ms", "ms", "lower"},
	{"oracle.check_ms", "ms", "lower"},
	{"oracle.runs", "count", "lower"},
	{"checkpoint.hash_us", "us", "lower"},
	{"checkpoint.put_us", "us", "lower"},
	{"checkpoint.get_us", "us", "lower"},
	{"checkpoint.open_replay_ms", "ms", "lower"},
	{"checkpoint.journal_bytes", "B", "lower"},
	{"checkpoint.salvaged", "count", "lower"},
	{"server.hit_direct_us", "us", "lower"},
	{"server.routekey_us", "us", "lower"},
	{"server.overhead_ms", "ms", "lower"},
	{"server.computes", "count", "lower"},
	{"server.memory_hits", "count", "higher"},
	{"server.persistent_hits", "count", "higher"},
	{"server.shed", "count", "lower"},
	{"server.memory_entries", "count", "lower"},
	{"shard.hop_us", "us", "lower"},
	{"shard.ring_lookup_ns", "ns", "lower"},
	{"shard.retries", "count", "lower"},
	{"shard.failovers", "count", "lower"},
	{"shard.hedges", "count", "lower"},
	{"harness.session_overhead_ms", "ms", "lower"},
	{"harness.sim_speedup_geomean", "ratio", "higher"},
	{"trace.overhead_frac", "ratio", "lower"},
	{"trace.self_frac.ptx", "ratio", "lower"},
	{"trace.self_frac.regalloc", "ratio", "lower"},
	{"trace.self_frac.spillopt", "ratio", "lower"},
	{"trace.self_frac.backend", "ratio", "lower"},
	{"trace.self_frac.core", "ratio", "lower"},
	{"trace.self_frac.gpusim", "ratio", "lower"},
	{"trace.self_frac.oracle", "ratio", "lower"},
	{"trace.self_frac.checkpoint", "ratio", "lower"},
	{"trace.self_frac.server", "ratio", "lower"},
	{"trace.self_frac.shard", "ratio", "lower"},
	{"trace.self_frac.harness", "ratio", "lower"},
}

// selfFracLayers are the layers trace.self_frac.* splits an op's time
// over. cfg, passes and emu are only reached inside another layer's call
// (regalloc, gpusim, oracle), so from outside they have probes but no
// share of their own.
var selfFracLayers = []string{"ptx", "regalloc", "spillopt", "backend", "core", "gpusim", "oracle", "checkpoint", "server", "shard", "harness"}

// tally aggregates the spans of the staged replays.
type tally struct {
	spans    []span
	byID     map[int64]span
	group    map[int64]string // span ID -> spanChain / spanProbes / "" (memoised)
	self     map[int64]time.Duration
	n        float64 // staged ops
	chainNS  float64 // sum of the chain spans themselves
	opaqueNS float64 // sum of the same ops' opaque times
}

// newTally aggregates spans; opaque holds, per staged replay, the time
// the same input took as an opaque op.
func newTally(spans []span, opaque []time.Duration) *tally {
	t := &tally{spans: spans, byID: make(map[int64]span, len(spans)), group: make(map[int64]string),
		self: selfTimes(spans), n: float64(len(opaque))}
	for _, s := range spans {
		t.byID[s.ID] = s
	}
	for _, s := range spans {
		if s.Name == spanChain {
			t.chainNS += float64(s.dur())
		}
	}
	for _, o := range opaque {
		t.opaqueNS += float64(o)
	}
	return t
}

// unexplainedMS is the part of an opaque op the chain does not account
// for, per op: what the entry layer (session, server) adds around the
// compiler.
func (t *tally) unexplainedMS() float64 { return t.perOp((t.opaqueNS - t.chainNS) / 1e6) }

// groupOf names the chain or probes span s descends from.
func (t *tally) groupOf(s span) string {
	if g, ok := t.group[s.ID]; ok {
		return g
	}
	g := ""
	switch {
	case s.Name == spanChain || s.Name == spanProbes:
		g = s.Name
	case s.Parent != 0:
		if p, ok := t.byID[s.Parent]; ok {
			g = t.groupOf(p)
		}
	}
	t.group[s.ID] = g
	return g
}

// sum adds the durations (or, with self, the self times) of the spans
// named name inside group ("" = both groups) and counts them.
func (t *tally) sum(name, group string, self bool) (total time.Duration, runs int) {
	for _, s := range t.spans {
		if s.Name != name {
			continue
		}
		g := t.groupOf(s)
		if g == "" || (group != "" && g != group) {
			continue
		}
		if self {
			total += t.self[s.ID]
		} else {
			total += s.dur()
		}
		runs++
	}
	return total, runs
}

// perOp turns a total over the staged ops into a per-op mean.
func (t *tally) perOp(total float64) float64 { return ratio(total, t.n) }

func (t *tally) msPerOp(name, group string) float64 {
	d, _ := t.sum(name, group, false)
	return t.perOp(ms(d))
}

func (t *tally) usPerOp(name, group string) float64 {
	d, _ := t.sum(name, group, false)
	return t.perOp(us(d))
}

func (t *tally) runsPerOp(name, group string) float64 {
	_, n := t.sum(name, group, false)
	return t.perOp(float64(n))
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// chainSelfByLayer splits the chain's wall time over the layers. A span
// is charged its self time; where its children ran in parallel (the
// profiling sweep's simulations) their durations add up to more than the
// interval they cover, so each child's subtree is scaled by covered time
// over summed child time and the layer shares still add up to the wall.
func (t *tally) chainSelfByLayer() map[string]float64 {
	children := make(map[int64][]span)
	for _, s := range t.spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := make(map[string]float64)
	var charge func(s span, weight float64)
	charge = func(s span, weight float64) {
		self := float64(t.self[s.ID])
		if s.Name != spanChain {
			out[s.layer()] += weight * self
		}
		sum := 0.0
		for _, k := range children[s.ID] {
			sum += float64(k.dur())
		}
		for _, k := range children[s.ID] {
			charge(k, weight*ratio(float64(s.dur())-self, sum))
		}
	}
	for _, s := range t.spans {
		if s.Name == spanChain {
			charge(s, 1)
		}
	}
	return out
}

// compilerMetrics fills the metrics every staged replay feeds, whichever
// workload it ran under.
func (t *tally) compilerMetrics(m map[string]float64, c *counts) {
	m["ptx.parse_ms"] = t.msPerOp("ptx.parse", "")
	parse, _ := t.sum("ptx.parse", "", false)
	m["ptx.parse_insts_per_s"] = ratio(float64(c.parseInsts), parse.Seconds())
	m["ptx.verify_ms"] = t.msPerOp("ptx.verify", "")
	m["ptx.print_ms"] = t.msPerOp("ptx.print", "")
	m["cfg.build_ms"] = t.msPerOp("cfg.build", spanProbes)
	m["cfg.liveness_ms"] = t.msPerOp("cfg.liveness", spanProbes)
	m["passes.shared_cold_ms"] = t.msPerOp("passes.shared_cold", spanProbes)
	m["regalloc.maxreg_ms"] = t.msPerOp("regalloc.maxreg", spanProbes)

	m["regalloc.coalesce_ms"] = t.msPerOp("regalloc.coalesce", spanChain)
	m["regalloc.color_ms"] = t.msPerOp("regalloc.color", spanChain)
	m["regalloc.color_runs"] = t.runsPerOp("regalloc.color", spanChain)
	m["regalloc.spill_insert_ms"] = t.msPerOp("regalloc.spill_insert", spanChain)
	m["regalloc.spill_insert_runs"] = t.runsPerOp("regalloc.spill_insert", spanChain)
	m["regalloc.phys_rewrite_ms"] = t.msPerOp("regalloc.phys_rewrite", spanChain)
	m["regalloc.candidates_per_color_run"] = ratio(t.runsPerOp("regalloc.phys_rewrite", spanChain), m["regalloc.color_runs"])
	m["regalloc.spilled_regs"] = t.perOp(float64(c.spilledRegs))
	// The knapsack pass re-enters the allocator; its nested colour runs
	// are already under regalloc.*, so it is charged its self time.
	knap, _ := t.sum("spillopt.knapsack", spanChain, true)
	m["spillopt.knapsack_ms"] = t.perOp(ms(knap))
	m["spillopt.shm_bytes_placed"] = t.perOp(float64(c.shmBytesPlaced))

	m["backend.crat.candidates_ms"] = t.msPerOp("backend.crat.candidates", spanProbes)
	m["backend.regdem.candidates_ms"] = t.msPerOp("backend.regdem.candidates", spanProbes)
	m["backend.candidates"] = t.perOp(float64(c.candidates))
	m["backend.feasible_frac"] = ratio(float64(c.candidates), float64(c.pointsOffered))
	m["backend.regdem.demoted_regs"] = t.perOp(float64(c.demotedRegs))

	m["core.analyze_ms"] = t.msPerOp("core.analyze", spanChain)
	m["core.profile_ms"] = t.msPerOp("core.profile", spanChain)
	m["core.profile_runs"] = t.perOp(float64(c.profileRuns))
	m["core.prune_ms"] = t.msPerOp("core.prune", spanChain)
	m["core.optimize_ms"] = t.msPerOp("core.optimize", spanChain)
	m["core.select_ms"] = t.msPerOp("core.select", spanChain)
	m["core.staged_cover_frac"] = ratio(t.chainNS, t.opaqueNS)

	sim, _ := t.sum("gpusim.run", spanChain, false)
	m["gpusim.run_ms"] = t.perOp(ms(sim))
	m["gpusim.warp_insts"] = t.perOp(float64(c.simWarpInsts))
	m["gpusim.warp_insts_per_s"] = ratio(float64(c.simWarpInsts), sim.Seconds())
	simStats(m, c.winner, t.n)

	m["emu.run_ms"] = t.msPerOp("emu.run", spanProbes)
	emuT, _ := t.sum("emu.run", spanProbes, false)
	m["emu.warp_insts_per_s"] = ratio(float64(c.emuWarpInsts), emuT.Seconds())
	m["oracle.gen_inputs_ms"] = t.msPerOp("oracle.gen_inputs", spanProbes)
	m["oracle.check_ms"] = t.msPerOp("oracle.check", spanChain)
	m["oracle.runs"] = t.perOp(float64(c.oracleRuns))

	m["checkpoint.hash_us"] = t.usPerOp("checkpoint.hash", spanChain)
	m["checkpoint.put_us"] = t.usPerOp("checkpoint.put", spanChain)
	m["checkpoint.get_us"] = t.usPerOp("checkpoint.get", spanProbes)
}

// simStats derives the simulated-hardware metrics from the summed stats
// of the winners' runs. They are simulated quantities: they repeat
// exactly and only a model change may move them.
func simStats(m map[string]float64, w gpusim.Stats, n float64) {
	if n == 0 || w.Cycles == 0 {
		return
	}
	m["gpusim.cycles"] = float64(w.Cycles) / n
	m["gpusim.ipc"] = w.IPC()
	m["gpusim.l1_hit_rate"] = ratio(float64(w.L1Hits), float64(w.L1Accesses))
	slots := float64(w.IssuedSlots + w.StallCongestion + w.StallMemData + w.StallALU + w.StallBarrier + w.StallEmpty)
	m["gpusim.stall_mem_frac"] = ratio(float64(w.StallMemData), slots)
	m["gpusim.stall_congestion_frac"] = ratio(float64(w.StallCongestion), slots)
}

// selfFracs splits the measured phase's total op time over the layers.
// The staged ops give the split of a cold op: the chain's self times by
// layer, the rest of the opaque op's time going to the layer the op
// enters through. coldShare is the part of the phase's op time spent in
// ops of that kind; everything else (cache hits) is the entry layer's.
func (t *tally) selfFracs(m map[string]float64, entry string, coldShare float64) {
	shares := make(map[string]float64)
	if total := max(t.opaqueNS, t.chainNS); total > 0 {
		for layer, ns := range t.chainSelfByLayer() {
			shares[layer] = coldShare * ns / total
		}
		shares[entry] += coldShare * (total - t.chainNS) / total
	} else {
		coldShare = 0
	}
	shares[entry] += 1 - coldShare
	for _, layer := range selfFracLayers {
		m["trace.self_frac."+layer] = shares[layer]
	}
}
