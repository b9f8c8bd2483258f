package main

import (
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"time"

	"crat/internal/checkpoint"
	"crat/internal/gpusim"
	"crat/internal/server"
	"crat/internal/shard"
)

// probeReps is how often a paired or micro probe repeats; medians of that
// many are steady to a few percent.
const probeReps = 200

// svcStaging is the staged phase of a service workload's traced run: a
// fresh twin server answers each sampled body once more, serially, so
// that the opaque time and the staged chain are measured under the same
// (absent) contention, and the chain must decide what both servers did.
type svcStaging struct {
	cfg    *config
	tr     *tracer
	st     *stager
	chk    *checker
	nw     network // the measured servers' network; the twin goes on it too
	client *http.Client

	store    *checkpoint.Store
	storeDir string
	costs    map[string]gpusim.Costs
	costsDur time.Duration

	c   counts
	ops []time.Duration // opaque (twin) time of each staged op
}

func newSvcStaging(cfg *config, tr *tracer, nw network, client *http.Client, chk *checker) (*svcStaging, error) {
	s := &svcStaging{cfg: cfg, tr: tr, st: &stager{tr: tr}, chk: chk, nw: nw, client: client, costs: make(map[string]gpusim.Costs)}
	for _, arch := range []gpusim.Config{gpusim.FermiConfig(), gpusim.KeplerConfig()} {
		sp := tr.begin(0, 0, "gpusim.measure_costs")
		costs, err := gpusim.MeasureCosts(arch)
		s.costsDur += sp.end()
		if err != nil {
			return nil, err
		}
		s.costs[arch.Name] = costs
	}
	var err error
	if s.storeDir, err = cacheDir(cfg, "scratch-store"); err != nil {
		return nil, err
	}
	s.store, err = checkpoint.Open(s.storeDir, "cratbench", "cratbench", false)
	return s, err
}

// replay stages the sampled cold ops for at most the traced run's second
// half: twin opaque op, then the chain, then the comparison.
func (s *svcStaging) replay(samples []sampled) error {
	if len(samples) == 0 {
		return nil
	}
	dir, err := cacheDir(s.cfg, "twin")
	if err != nil {
		return err
	}
	twin, err := startNode(cratdConfig(s.cfg, dir), s.nw)
	if err != nil {
		return err
	}
	defer twin.shutdown()
	warmUp(s.client, twin.url, s.cfg.seed, s.chk)

	defer s.st.hook()()
	deadline := time.Now().Add(s.cfg.window())
	for _, smp := range samples {
		if len(s.ops) > 0 && time.Now().After(deadline) {
			break
		}
		s.st.op = smp.op
		sp := s.tr.begin(smp.op, 0, spanOpaque)
		cr := svcOp(s.client, twin.url, smp.req, s.chk)
		opaque := sp.end()
		if cr == nil {
			continue
		}
		got, err := s.st.compileChain(smp.req, s.costs, s.store, &s.c)
		if err != nil {
			return fmt.Errorf("staged replay of key %d: %w", smp.req.key, err)
		}
		if want := responseOutcome(smp.cr); got != want {
			s.chk.fail("key %d: the staged replay decided %+v, the service %+v", smp.req.key, got, want)
		}
		s.ops = append(s.ops, opaque)
	}
	return nil
}

// storeProbes times the persistent tier's read side on the scratch store:
// entries are appended (when the chain has not already done so), the
// store is closed and reopened with resume, which replays the journal,
// and every entry is read back.
func (s *svcStaging) storeProbes(m map[string]float64, extra []*server.CompileResponse) error {
	putUS := 0.0
	for i, cr := range extra {
		key := fmt.Sprintf("extra-%d", i)
		sp := s.tr.begin(0, 0, "checkpoint.put")
		err := s.store.Put(key, cr)
		d := sp.end()
		if err != nil {
			return err
		}
		putUS += us(d)
	}
	if err := s.store.Close(); err != nil {
		return err
	}
	if fi, err := os.Stat(filepath.Join(s.storeDir, checkpoint.JournalFilename)); err == nil {
		m["checkpoint.journal_bytes"] = float64(fi.Size())
	}
	sp := s.tr.begin(0, 0, "checkpoint.open_replay")
	st, err := checkpoint.Open(s.storeDir, "cratbench", "cratbench", true)
	m["checkpoint.open_replay_ms"] = ms(sp.end())
	if err != nil {
		return err
	}
	defer st.Close()
	h := st.Health()
	m["checkpoint.salvaged"] = float64(h.SalvagedTail + h.Quarantined)
	if len(extra) > 0 {
		start := time.Now()
		for i := range extra {
			var cr server.CompileResponse
			if ok, err := st.Get(fmt.Sprintf("extra-%d", i), &cr); err != nil || !ok {
				return fmt.Errorf("scratch store lost entry %d (err %v)", i, err)
			}
		}
		m["checkpoint.get_us"] = us(time.Since(start)) / float64(len(extra))
		m["checkpoint.put_us"] = putUS / float64(len(extra))
	}
	return nil
}

// hitMedian is the median latency of probeReps serial serves of a warm
// key at base.
func (s *svcStaging) hitMedian(name, base string, r request) float64 {
	lat := make([]float64, probeReps)
	for i := range lat {
		sp := s.tr.begin(0, 0, name)
		svcOp(s.client, base, r, s.chk)
		lat[i] = us(sp.end())
	}
	return median(lat)
}

// serverMetrics fills the server.* metrics from the measured server's own
// counters and a direct warm-hit probe on it.
func (s *svcStaging) serverMetrics(m map[string]float64, nd *node, warm request) error {
	snap, err := nd.statsz(s.client)
	if err != nil {
		return fmt.Errorf("/statsz: %w", err)
	}
	m["server.computes"] = float64(snap.Computes)
	m["server.memory_hits"] = float64(snap.MemoryHits)
	m["server.persistent_hits"] = float64(snap.PersistentHits)
	m["server.shed"] = float64(snap.Shed)
	m["server.memory_entries"] = float64(snap.MemoryEntries)
	if snap.Shed != 0 {
		s.chk.fail("the server shed %d requests of a closed loop it was sized for", snap.Shed)
	}
	if j := snap.Journal; j != nil && j.SalvagedTail+j.Quarantined != 0 {
		s.chk.fail("the journal salvaged %d and quarantined %d records on a clean run", j.SalvagedTail, j.Quarantined)
	}
	m["server.hit_direct_us"] = s.hitMedian("server.hit_direct", nd.url, warm)
	start := time.Now()
	for i := 0; i < probeReps; i++ {
		if _, err := server.RouteKey(warm.req); err != nil {
			return err
		}
	}
	m["server.routekey_us"] = us(time.Since(start)) / probeReps
	return nil
}

// metrics computes what every service workload's staged replays feed.
func (s *svcStaging) metrics() (map[string]float64, *tally) {
	t := newTally(s.tr.snapshot(), s.ops)
	m := make(map[string]float64)
	t.compilerMetrics(m, &s.c)
	m["gpusim.measure_costs_ms"] = ms(s.costsDur)
	m["server.overhead_ms"] = t.unexplainedMS()
	return m, t
}

// traceSvc is the traced run's second half for svc_cold and svc_warm.
// warm is a key the measured server has already served. On svc_warm there
// are no cold ops to stage: the compiler metrics read 0 and the hot set's
// replies feed the store probes instead.
func traceSvc(cfg *config, tr *tracer, res *result, env *svcEnv, samples []sampled, warm request, hot []request, chk *checker) error {
	nd, client := env.n, env.client
	s, err := newSvcStaging(cfg, tr, env.nw, client, chk)
	if err != nil {
		return err
	}
	if err := s.replay(samples); err != nil {
		return err
	}
	m, t := s.metrics()
	var extra []*server.CompileResponse
	for _, r := range hot {
		if cr := svcOp(client, nd.url, r, chk); cr != nil {
			extra = append(extra, cr)
		}
	}
	if err := s.storeProbes(m, extra); err != nil {
		return err
	}
	if err := s.serverMetrics(m, nd, warm); err != nil {
		return err
	}
	coldShare := 1.0
	if len(hot) > 0 {
		coldShare = 0
	}
	t.selfFracs(m, "server", coldShare)
	m["trace.overhead_frac"] = overheadFrac(res.phase)
	res.layers = m
	return nil
}

// traceGw is the traced run's second half for gw_mixed: the cold ops are
// staged against a plain twin server, and the gateway hop is isolated by
// serving one warm key alternately through the gateway and straight from
// the replica that owns it.
func traceGw(cfg *config, tr *tracer, res *result, env *gwEnv, samples []sampled, coldMS float64, chk *checker) error {
	s, err := newSvcStaging(cfg, tr, env.nw, env.client, chk)
	if err != nil {
		return err
	}
	if err := s.replay(samples); err != nil {
		return err
	}
	m, t := s.metrics()
	if err := s.storeProbes(m, nil); err != nil {
		return err
	}

	warm := env.hot[0]
	ring := shard.NewRing(0)
	var owner *node
	for _, r := range env.replicas {
		ring.Add(r.url)
	}
	key, err := server.RouteKey(warm.req)
	if err != nil {
		return err
	}
	primary, _ := ring.Primary(key)
	for _, r := range env.replicas {
		if r.url == primary {
			owner = r
		}
	}
	if owner == nil {
		return fmt.Errorf("no replica owns the probe key")
	}
	if err := s.serverMetrics(m, owner, warm); err != nil {
		return err
	}
	for _, r := range env.replicas {
		if r == owner {
			continue
		}
		snap, err := r.statsz(env.client)
		if err != nil {
			return err
		}
		m["server.computes"] += float64(snap.Computes)
		m["server.memory_hits"] += float64(snap.MemoryHits)
		m["server.shed"] += float64(snap.Shed)
		m["server.memory_entries"] += float64(snap.MemoryEntries)
	}

	// Paired: direct, via gateway, direct, ... so drift hits both sides.
	diffs := make([]float64, probeReps)
	for i := range diffs {
		sp := tr.begin(0, 0, "server.hit_direct")
		svcOp(env.client, owner.url, warm, chk)
		direct := sp.end()
		sp = tr.begin(0, 0, "shard.hit_via_gateway")
		svcOp(env.client, env.url, warm, chk)
		diffs[i] = us(sp.end() - direct)
	}
	m["shard.hop_us"] = median(diffs)
	start := time.Now()
	for i := 0; i < probeReps; i++ {
		ring.Lookup(key, 2)
	}
	m["shard.ring_lookup_ns"] = float64(time.Since(start).Nanoseconds()) / probeReps
	snap := env.gw.Snapshot()
	m["shard.retries"] = float64(snap.Retries)
	m["shard.failovers"] = float64(snap.Failovers)
	m["shard.hedges"] = float64(snap.Hedges)

	// Split the phase's op time: cold ops by the staged split (the twin
	// is a plain server, so their remainder is the server's), hits to the
	// server, and one hop per op moved from the server to the gateway.
	busy := sum(res.phase.latMS)
	t.selfFracs(m, "server", ratio(coldMS, busy))
	m["trace.overhead_frac"] = overheadFrac(res.phase)
	res.layers = m
	hop := ratio(float64(len(res.phase.latMS))*m["shard.hop_us"]/1e3, busy)
	hop = min(max(hop, 0), m["trace.self_frac.server"])
	m["trace.self_frac.shard"] += hop
	m["trace.self_frac.server"] -= hop
	return nil
}
