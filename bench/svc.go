package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"os"
	"sort"
	"time"

	"crat/internal/emu/ptxgen"
	"crat/internal/ptx"
	"crat/internal/server"
	"crat/internal/workloads"
)

// unionBackends is the backend list every service request names: the most
// expensive supported configuration, and the one whose cost had never
// been recorded.
var unionBackends = []string{"crat", "regdem"}

const genBlock = 64 // thread-block size of every ptxgen kernel

// request is one pre-encoded compile request. key identifies the content
// address: two requests with equal keys have identical bodies.
type request struct {
	key  int
	req  server.CompileRequest
	body []byte
}

func newRequest(key int, req server.CompileRequest) request {
	body, err := json.Marshal(req)
	if err != nil {
		panic(fmt.Sprintf("encoding a compile request: %v", err)) // plain data: a bug if it fails
	}
	return request{key: key, req: req, body: body}
}

// genRequest is the ptxgen kernel with the given generation seed.
func genRequest(key int, genSeed int64) request {
	k := ptxgen.Generate(ptxgen.Config{Seed: genSeed, Block: genBlock})
	return newRequest(key, server.CompileRequest{PTX: ptx.Print(k), Block: genBlock, Backends: unionBackends})
}

// genBase spreads --seed over the ptxgen seed space so that two benchmark
// seeds never share a kernel; stream keeps one run's corpora (hot set,
// cold stream, warm-ups) apart.
func genBase(seed int64, stream int) int64 { return seed*1_000_003 + int64(stream)*100_000 }

// table3Slots lists the Table-3 kernels in the fixed order svc_cold sends
// them: resource-sensitive and insensitive apps alternate and the two
// architectures alternate pairwise, so any prefix is a fair mix. The
// order does not depend on the seed — which prefix a run reaches depends
// only on how fast the system is, not on a draw.
func table3Slots() []server.CompileRequest {
	classes := [][]workloads.Profile{workloads.Sensitive(), workloads.Insensitive()}
	archs := []string{"fermi", "kepler"}
	var out []server.CompileRequest
	for flip := 0; flip < len(archs); flip++ {
		for i := 0; i < len(classes[0]) || i < len(classes[1]); i++ {
			for _, class := range classes {
				if i >= len(class) {
					continue
				}
				app := class[i].App()
				out = append(out, server.CompileRequest{
					PTX: ptx.Print(app.Kernel), Block: app.Block, Grid: 2, Arch: archs[(i+flip)%2], Backends: unionBackends,
				})
			}
		}
	}
	return out
}

// table3Every is the spacing of Table-3 kernels in the svc_cold stream.
// At 1 in 40 the eleven heavy kernels are ~1.3 % of the ops: they carry
// about a quarter of the compile time, as real kernels should, yet the
// p95 stays inside the dense ptxgen population instead of sitting on the
// boundary between the two (at the issue's 1 in 10 it sat exactly there).
const table3Every = 40

// coldStream builds n distinct compile requests: ptxgen kernels drawn
// from the seed, with a Table-3 kernel at every table3Every-th position.
// When the Table-3 list wraps, verify_seed changes, which changes the
// content address but not the work.
func coldStream(seed int64, stream, n int) []request {
	slots := table3Slots()
	base := genBase(seed, stream)
	reqs := make([]request, n)
	for i := range reqs {
		if i%table3Every == table3Every/2 {
			t := i / table3Every
			req := slots[t%len(slots)]
			req.VerifySeed = int64(t / len(slots))
			reqs[i] = newRequest(i, req)
			continue
		}
		reqs[i] = genRequest(i, base+int64(i))
	}
	return reqs
}

// node is one in-process cratd on a network.
type node struct {
	srv  *server.Server
	url  string
	stop func() // takes the server off the network
}

func startNode(cfg server.Config, nw network) (*node, error) {
	srv, err := server.New(cfg)
	if err != nil {
		return nil, err
	}
	n := &node{srv: srv}
	n.url, n.stop = nw.serve(srv.Handler())
	return n, nil
}

// shutdown drains the server: in-flight requests finish and the journal
// is flushed and closed, as a SIGTERM would do to cratd.
func (n *node) shutdown() error {
	n.stop()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	return n.srv.Shutdown(ctx)
}

func (n *node) statsz(client *http.Client) (server.StatsSnapshot, error) {
	var snap server.StatsSnapshot
	resp, err := client.Get(n.url + "/statsz")
	if err != nil {
		return snap, err
	}
	defer resp.Body.Close()
	err = json.NewDecoder(resp.Body).Decode(&snap)
	return snap, err
}

// post sends one compile request and decodes the reply.
func post(client *http.Client, base string, body []byte) (*server.CompileResponse, error) {
	resp, err := client.Post(base+"/v1/compile", "application/json", bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("status %d: %.200s", resp.StatusCode, raw)
	}
	var cr server.CompileResponse
	if err := json.Unmarshal(raw, &cr); err != nil {
		return nil, fmt.Errorf("decoding the reply: %w", err)
	}
	return &cr, nil
}

// sampled keeps a reply for the output check that runs after timing.
type sampled struct {
	op  int64 // the op's identifier in the trace
	req request
	cr  *server.CompileResponse
}

// svcOp sends r and applies the per-reply checks that are cheap enough to
// run on every op: status, degraded, one digest per key. It returns the
// reply, or nil when the op failed.
func svcOp(client *http.Client, base string, r request, chk *checker) *server.CompileResponse {
	cr, err := post(client, base, r.body)
	switch {
	case err != nil:
		chk.fail("key %d: %v", r.key, err)
		return nil
	case cr.Degraded:
		chk.fail("key %d: unexpected degraded reply: %s", r.key, cr.Divergence)
		return nil
	case !chk.served(r.key, decisionDigest(cr)):
		return nil
	}
	return cr
}

// checkSampled runs the emulator-backed output check over the kept
// replies, outside the timed region.
func checkSampled(samples []sampled, chk *checker) {
	for _, s := range samples {
		if err := checkOutput(s.req.req.PTX, s.cr.PTX, s.req.req.Grid, s.req.req.Block); err != nil {
			chk.fail("key %d (%s): output check: %v", s.req.key, s.cr.Kernel, err)
		}
	}
}

// primeAll sends every request once, untimed, from `clients` clients.
func primeAll(clients int, client *http.Client, base string, reqs []request, chk *checker) {
	closedLoop(clients, len(reqs), time.Hour, func(_, i int) { svcOp(client, base, reqs[i], chk) })
}

// sampleEvery is the share of cold replies that get the output check.
const sampleEvery = 8

// cacheDir makes a fresh persistent-tier directory under the benchmark's
// own output directory (the benchmark writes nowhere else).
func cacheDir(cfg *config, tag string) (string, error) {
	if err := os.MkdirAll(cfg.tmpDir(), 0o755); err != nil {
		return "", err
	}
	return os.MkdirTemp(cfg.tmpDir(), tag+"-")
}

// cratdConfig is cmd/cratd's defaults with the worker count pinned to the
// client count.
func cratdConfig(cfg *config, dir string) server.Config {
	return server.Config{VerifyDefault: true, Workers: cfg.clients, CacheDir: dir}
}

// warmUp sends one throwaway kernel per architecture so that lazy set-up
// (the per-arch access-cost microbenchmarks, connection establishment)
// finishes before timing.
func warmUp(client *http.Client, base string, seed int64, chk *checker) {
	for i, arch := range []string{"fermi", "kepler"} {
		k := ptxgen.Generate(ptxgen.Config{Seed: genBase(seed, 9) + int64(i), Block: genBlock})
		svcOp(client, base, newRequest(-1-i, server.CompileRequest{
			PTX: ptx.Print(k), Block: genBlock, Arch: arch, Backends: unionBackends,
		}), chk)
	}
}

// svcEnv is one cratd with a persistent tier, the network it is on, its
// client, and the requests the workload sends it: svc_cold's stream, or
// svc_warm's hot set with the Zipf-distributed sequence of indices into it.
type svcEnv struct {
	n      *node
	nw     network
	dir    string
	client *http.Client
	reqs   []request
	draw   []uint8
}

func (e *svcEnv) close() error {
	err := e.n.shutdown()
	e.client.CloseIdleConnections()
	if rerr := os.RemoveAll(e.dir); err == nil {
		err = rerr
	}
	return err
}

// ---- svc_cold ----

// coldCap bounds the pre-generated stream: ops/s the service cannot reach
// on any machine this runs on. Running out ends the window early, which
// is reported, not hidden.
const coldCap = 300

func setupCold(cfg *config, chk *checker) (*svcEnv, error) {
	n := int(coldCap * cfg.seconds)
	if cfg.quick {
		n = table3Every
	}
	reqs := coldStream(cfg.seed, 0, n)
	dir, err := cacheDir(cfg, "svc_cold")
	if err != nil {
		return nil, err
	}
	nw := loopback{}
	nd, err := startNode(cratdConfig(cfg, dir), nw)
	if err != nil {
		return nil, err
	}
	e := &svcEnv{n: nd, nw: nw, dir: dir, client: nw.client(cfg.clients), reqs: reqs}
	warmUp(e.client, nd.url, cfg.seed, chk)
	return e, nil
}

func runSvcCold(cfg *config, tr *tracer) (*result, error) {
	chk := newChecker()
	res := &result{tailLimit: 95}
	env, err := repeatSetup(cfg, res, func() (*svcEnv, error) { return setupCold(cfg, chk) }, (*svcEnv).close)
	if err != nil {
		return nil, err
	}
	defer env.close()

	rng := rand.New(rand.NewSource(cfg.seed))
	keep := make([]bool, len(env.reqs))
	for i := range keep {
		keep[i] = rng.Intn(sampleEvery) == 0 || cfg.quick
	}
	replies := make([]*server.CompileResponse, len(env.reqs))
	ph := closedLoop(cfg.clients, len(env.reqs), cfg.window(), func(_, i int) {
		sp := tr.begin(int64(i+1), 0, "server.compile_cold")
		replies[i] = svcOp(env.client, env.n.url, env.reqs[i], chk)
		sp.end()
	})
	res.phase = ph

	var samples []sampled
	for i, cr := range replies {
		if cr == nil {
			continue
		}
		if cr.Cached {
			chk.fail("key %d: a never-seen body was served from the %s tier", env.reqs[i].key, cr.CacheTier)
		}
		if keep[i] {
			samples = append(samples, sampled{int64(i + 1), env.reqs[i], cr})
		}
	}
	checkSampled(samples, chk)
	res.checked = len(samples)

	if tr != nil {
		if err := traceSvc(cfg, tr, res, env, samples, env.reqs[0], nil, chk); err != nil {
			return nil, err
		}
	}
	res.failed = chk.failures()
	return res, nil
}

// ---- svc_warm ----

const (
	warmKeys = 128
	zipfS    = 1.1
)

// setupWarm primes the hot set cold, restarts the server on the same
// cache directory (so the journal is replayed, and its cost lands in
// setup_s), and touches every key once so the memory tier is full.
func setupWarm(cfg *config, chk *checker) (*svcEnv, error) {
	nkeys := warmKeys
	if cfg.quick {
		nkeys = 8
	}
	keys := make([]request, nkeys)
	for i := range keys {
		keys[i] = genRequest(i, genBase(cfg.seed, 1)+int64(i))
	}
	keys = medianOut(keys)
	dir, err := cacheDir(cfg, "svc_warm")
	if err != nil {
		return nil, err
	}
	nw := newFabric()
	client := nw.client(cfg.clients)
	first, err := startNode(cratdConfig(cfg, dir), nw)
	if err != nil {
		return nil, err
	}
	primeAll(cfg.clients, client, first.url, keys, chk)
	if err := first.shutdown(); err != nil {
		return nil, fmt.Errorf("draining the priming server: %w", err)
	}
	nd, err := startNode(cratdConfig(cfg, dir), nw)
	if err != nil {
		return nil, err
	}
	e := &svcEnv{n: nd, nw: nw, dir: dir, client: client, reqs: keys}
	zipf := rand.NewZipf(rand.New(rand.NewSource(cfg.seed)), zipfS, 1, uint64(nkeys-1))
	e.draw = make([]uint8, int(warmCap*cfg.seconds))
	for i := range e.draw {
		e.draw[i] = uint8(zipf.Uint64())
	}
	for _, k := range keys {
		if cr := svcOp(client, nd.url, k, chk); cr != nil && cr.CacheTier != "persistent" {
			chk.fail("key %d: after the restart the journal did not serve it (tier %q)", k.key, cr.CacheTier)
		}
	}
	return e, nil
}

// medianOut orders the hot set for the Zipf draw: rank 0 is the body of
// median size and ranks move outwards from there, so the few keys that
// carry most of the traffic are of typical size whatever the seed. A hit
// costs in proportion to its body (JSON, digest); with popularity left
// to chance the top key's size alone moved throughput by several percent
// between seeds, which says nothing about the cache.
func medianOut(keys []request) []request {
	sort.SliceStable(keys, func(i, j int) bool { return len(keys[i].body) < len(keys[j].body) })
	out := make([]request, 0, len(keys))
	for lo, hi := len(keys)/2-1, len(keys)/2; lo >= 0 || hi < len(keys); lo, hi = lo-1, hi+1 {
		if hi < len(keys) {
			out = append(out, keys[hi])
		}
		if lo >= 0 {
			out = append(out, keys[lo])
		}
	}
	return out
}

// warmCap bounds the pre-drawn Zipf sequence (ops/s).
const warmCap = 100000

func runSvcWarm(cfg *config, tr *tracer) (*result, error) {
	chk := newChecker()
	res := &result{tailLimit: 95, sliced: true}
	env, err := repeatSetup(cfg, res, func() (*svcEnv, error) { return setupWarm(cfg, chk) }, (*svcEnv).close)
	if err != nil {
		return nil, err
	}
	defer env.close()

	ph := closedLoop(cfg.clients, len(env.draw), cfg.window(), func(_, i int) {
		sp := tr.begin(int64(i+1), 0, "server.compile_hit")
		cr := svcOp(env.client, env.n.url, env.reqs[env.draw[i]], chk)
		sp.end()
		if cr != nil && cr.CacheTier != "memory" {
			chk.fail("key %d: a hot key was not a memory hit (tier %q)", env.draw[i], cr.CacheTier)
		}
	})
	res.phase = ph

	// What the warm tier serves is checked like any other output: one
	// key in sampleEvery, fetched once more, against the emulator.
	var samples []sampled
	rng := rand.New(rand.NewSource(cfg.seed))
	for _, k := range env.reqs {
		if rng.Intn(sampleEvery) != 0 {
			continue
		}
		if cr := svcOp(env.client, env.n.url, k, chk); cr != nil {
			samples = append(samples, sampled{0, k, cr})
		}
	}
	checkSampled(samples, chk)
	res.checked = len(samples)

	if tr != nil {
		if err := traceSvc(cfg, tr, res, env, nil, env.reqs[0], env.reqs, chk); err != nil {
			return nil, err
		}
	}
	res.failed = chk.failures()
	return res, nil
}
