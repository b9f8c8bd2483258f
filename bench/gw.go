package main

import (
	"context"
	"fmt"
	"math/rand"
	"net/http"
	"sync/atomic"
	"time"

	"crat/internal/server"
	"crat/internal/shard"
)

// gwEnv is two in-process replicas behind an in-process gateway, all on
// one fabric: the clients reach the gateway over it and the gateway its
// replicas (GatewayConfig.Transport).
type gwEnv struct {
	nw       *fabric
	replicas []*node
	gw       *shard.Gateway
	url      string // the gateway's
	stop     func() // takes the gateway off the fabric
	client   *http.Client
	hot      []request
	cold     []request
	isCold   []bool // the op sequence: true = next never-seen kernel
	hotDraw  []uint8
}

func (e *gwEnv) close() error {
	e.stop()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	err := e.gw.Shutdown(ctx)
	for _, r := range e.replicas {
		if rerr := r.shutdown(); err == nil {
			err = rerr
		}
	}
	e.client.CloseIdleConnections()
	return err
}

const (
	gwReplicas = 2
	gwHotKeys  = 100
	gwColdFrac = 10 // one op in gwColdFrac is a never-seen kernel
	// gwCap bounds the pre-drawn op sequence (ops/s).
	gwCap = 4000
)

// setupGw starts the fleet, waits until the gateway's prober has seen
// both replicas ready, and primes the hot set through the gateway.
func setupGw(cfg *config, chk *checker) (*gwEnv, error) {
	nhot := gwHotKeys
	if cfg.quick {
		nhot = 8
	}
	nw := newFabric()
	e := &gwEnv{nw: nw, client: nw.client(cfg.clients)}
	var urls []string
	for i := 0; i < gwReplicas; i++ {
		// Memory tiers only: the fleet path is measured without a disk.
		nd, err := startNode(server.Config{VerifyDefault: true, Workers: 1}, nw)
		if err != nil {
			return nil, err
		}
		e.replicas = append(e.replicas, nd)
		urls = append(urls, nd.url)
	}
	gw, err := shard.NewGateway(shard.GatewayConfig{Replicas: urls, Transport: nw})
	if err != nil {
		return nil, err
	}
	gw.Start()
	e.gw = gw
	e.url, e.stop = nw.serve(gw.Handler())

	e.hot = make([]request, nhot)
	for i := range e.hot {
		e.hot[i] = genRequest(i, genBase(cfg.seed, 2)+int64(i))
	}
	nops := int(gwCap * cfg.seconds)
	rng := rand.New(rand.NewSource(cfg.seed))
	e.isCold = make([]bool, nops)
	e.hotDraw = make([]uint8, nops)
	// Exactly one op of every gwColdFrac consecutive ones is cold, at a
	// seeded position: drawn independently per op, the cold share of a
	// run moved by a few percent with the seed, and throughput with it.
	ncold := 0
	for i := range e.isCold {
		if i%gwColdFrac == 0 && i+gwColdFrac <= nops {
			e.isCold[i+rng.Intn(gwColdFrac)] = true
			ncold++
		}
		e.hotDraw[i] = uint8(rng.Intn(nhot))
	}
	// Far fewer cold kernels are reached than drawn; generate what a
	// run can use (cold compiles bound the op rate).
	ncold = min(ncold, int(coldCap*cfg.seconds))
	e.cold = make([]request, ncold)
	for i := range e.cold {
		e.cold[i] = genRequest(nhot+i, genBase(cfg.seed, 3)+int64(i))
	}

	deadline := time.Now().Add(10 * time.Second)
	for gw.Snapshot().HealthyReplicas < gwReplicas {
		if time.Now().After(deadline) {
			return nil, fmt.Errorf("the gateway did not see %d healthy replicas within 10s", gwReplicas)
		}
		time.Sleep(5 * time.Millisecond)
	}
	warmUp(e.client, e.url, cfg.seed, chk)
	primeAll(cfg.clients, e.client, e.url, e.hot, chk)
	return e, nil
}

func runGwMixed(cfg *config, tr *tracer) (*result, error) {
	chk := newChecker()
	res := &result{tailLimit: 95}
	env, err := repeatSetup(cfg, res, func() (*gwEnv, error) { return setupGw(cfg, chk) }, (*gwEnv).close)
	if err != nil {
		return nil, err
	}
	defer env.close()

	// coldAt[i] is the index into env.cold of op i, fixed up front so the
	// op list does not depend on which client reaches it first.
	coldAt := make([]int, len(env.isCold))
	limit, n := len(env.isCold), 0
	for i, c := range env.isCold {
		if !c {
			continue
		}
		if n == len(env.cold) {
			limit = i
			break
		}
		coldAt[i] = n
		n++
	}
	rng := rand.New(rand.NewSource(cfg.seed + 1))
	keep := make([]bool, len(env.cold))
	for i := range keep {
		keep[i] = rng.Intn(sampleEvery) == 0 || cfg.quick
	}
	replies := make([]*server.CompileResponse, len(env.cold))
	opOf := make([]int64, len(env.cold))
	var coldNS atomic.Int64 // op time spent in cold compiles
	ph := closedLoop(cfg.clients, limit, cfg.window(), func(_, i int) {
		if env.isCold[i] {
			start := time.Now()
			sp := tr.begin(int64(i+1), 0, "shard.compile_cold")
			replies[coldAt[i]] = svcOp(env.client, env.url, env.cold[coldAt[i]], chk)
			sp.end()
			opOf[coldAt[i]] = int64(i + 1)
			coldNS.Add(int64(time.Since(start)))
			return
		}
		sp := tr.begin(int64(i+1), 0, "shard.compile_hit")
		cr := svcOp(env.client, env.url, env.hot[env.hotDraw[i]], chk)
		sp.end()
		if cr != nil && cr.CacheTier != "memory" {
			chk.fail("key %d: a hot key was not a memory hit (tier %q)", env.hotDraw[i], cr.CacheTier)
		}
	})
	res.phase = ph

	var samples []sampled
	for i, cr := range replies {
		if cr != nil && keep[i] {
			samples = append(samples, sampled{opOf[i], env.cold[i], cr})
		}
	}
	checkSampled(samples, chk)
	res.checked = len(samples)

	snap := env.gw.Snapshot()
	if snap.Retries+snap.Failovers+snap.Hedges != 0 {
		chk.fail("a healthy fleet retried %d, failed over %d and hedged %d requests", snap.Retries, snap.Failovers, snap.Hedges)
	}
	if tr != nil {
		if err := traceGw(cfg, tr, res, env, samples, ms(time.Duration(coldNS.Load())), chk); err != nil {
			return nil, err
		}
	}
	res.failed = chk.failures()
	return res, nil
}
