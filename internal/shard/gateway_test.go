package shard

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"crat/internal/passes"
	"crat/internal/ptx"
	"crat/internal/retry"
	"crat/internal/server"
)

// testReplica is an in-process cratd replica on a real TCP listener, so
// the chaos test can kill it abruptly (http.Server.Close: listener gone,
// in-flight connections reset — the in-process stand-in for SIGKILL) and
// restart it on the same address.
type testReplica struct {
	s    *server.Server
	hs   *http.Server
	addr string
}

func startReplica(t *testing.T, cfg server.Config) *testReplica {
	t.Helper()
	s, err := server.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	r := &testReplica{s: s}
	r.listen(t, "127.0.0.1:0")
	return r
}

func (r *testReplica) listen(t *testing.T, addr string) {
	t.Helper()
	var l net.Listener
	var err error
	// Rebinding the original port right after an abrupt close can race
	// the kernel's teardown; retry briefly.
	for deadline := time.Now().Add(5 * time.Second); time.Now().Before(deadline); {
		if l, err = net.Listen("tcp", addr); err == nil {
			break
		}
		time.Sleep(20 * time.Millisecond)
	}
	if err != nil {
		t.Fatalf("listen %s: %v", addr, err)
	}
	r.addr = l.Addr().String()
	r.hs = &http.Server{Handler: r.s.Handler()}
	go r.hs.Serve(l)
	t.Cleanup(func() { r.hs.Close() })
}

func (r *testReplica) url() string { return "http://" + r.addr }

// kill closes the listener and every connection without any drain.
func (r *testReplica) kill() { r.hs.Close() }

// restart rebinds the same address (same ring identity, same warm
// in-process caches).
func (r *testReplica) restart(t *testing.T) { r.listen(t, r.addr) }

func startGateway(t *testing.T, cfg GatewayConfig) (*Gateway, *httptest.Server) {
	t.Helper()
	g, err := NewGateway(cfg)
	if err != nil {
		t.Fatal(err)
	}
	g.Start()
	ts := httptest.NewServer(g.Handler())
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		g.Shutdown(ctx)
	})
	return g, ts
}

func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("condition not reached within 10s: %s", what)
}

// TestGatewayChaosE2E is the acceptance run in-process: 3 replicas
// behind the gateway, one killed abruptly mid-load and later restarted.
// Zero client-visible failures, the circuit-open and failover counters
// advance, and every Decision is byte-identical to a single-replica
// baseline run over the same corpus.
func TestGatewayChaosE2E(t *testing.T) {
	const kernels, requests = 6, 60
	loadOpts := server.LoadOptions{
		Concurrency:      4,
		Requests:         requests,
		Kernels:          kernels,
		Seed:             7,
		Block:            64,
		Timeout:          30 * time.Second,
		CaptureDecisions: true,
	}

	// Single-replica baseline, loaded directly (no gateway).
	baseline := startReplica(t, server.Config{Workers: 2})
	baseRep, err := server.RunLoad(context.Background(), baseline.url(), loadOpts)
	if err != nil {
		t.Fatalf("baseline load: %v", err)
	}
	if baseRep.OK != requests || len(baseRep.Decisions) != kernels {
		t.Fatalf("baseline not clean: ok=%d decisions=%d", baseRep.OK, len(baseRep.Decisions))
	}

	// The fleet: 3 fresh replicas behind the gateway. Health probing is
	// slowed so the circuit breaker (not ejection) is what sheds the dead
	// replica first — both paths advance their counters.
	reps := []*testReplica{
		startReplica(t, server.Config{Workers: 2}),
		startReplica(t, server.Config{Workers: 2}),
		startReplica(t, server.Config{Workers: 2}),
	}
	urls := []string{reps[0].url(), reps[1].url(), reps[2].url()}
	g, ts := startGateway(t, GatewayConfig{
		Replicas: urls,
		Health:   HealthConfig{Period: 200 * time.Millisecond, UnhealthyAfter: 2, HealthyAfter: 2},
		Breaker:  BreakerConfig{Failures: 2, Cooldown: 500 * time.Millisecond},
		Retry:    retry.Policy{MaxAttempts: 4, BaseDelay: 5 * time.Millisecond, MaxDelay: 50 * time.Millisecond},
	})

	// Kill the replica that owns the most corpus keys, so post-kill
	// traffic is guaranteed to hit the dead shard and exercise failover.
	owners := map[string]int{}
	for i, req := range server.Corpus(kernels, loadOpts.Seed, loadOpts.Block) {
		key, err := server.RouteKey(req)
		if err != nil {
			t.Fatalf("route key %d: %v", i, err)
		}
		if primary, ok := g.ring.Primary(key); ok {
			owners[primary]++
		}
	}
	victim := 0
	for i, u := range urls {
		if owners[u] > owners[urls[victim]] {
			victim = i
		}
	}
	if owners[urls[victim]] == 0 {
		t.Fatal("no replica owns any corpus key — ring is broken")
	}

	loadDone := make(chan *server.LoadReport, 1)
	go func() {
		rep, err := server.RunLoad(context.Background(), ts.URL, loadOpts)
		if err != nil {
			t.Errorf("fleet load: %v", err)
		}
		loadDone <- rep
	}()
	waitFor(t, "some load completed before the kill", func() bool {
		return g.Stats().Completed.Load() >= 8
	})
	reps[victim].kill()
	rep := <-loadDone
	if rep == nil {
		t.Fatal("no load report")
	}

	// The acceptance bar: zero client-visible failures despite the kill.
	if rep.OK != requests {
		t.Errorf("ok = %d of %d (failed %d, timeouts %d, shed %d): the crash was client-visible",
			rep.OK, requests, rep.Failed, rep.Timeouts, rep.Shed)
	}
	if rep.Inconsistent != 0 {
		t.Errorf("inconsistent decisions across repeats: %d", rep.Inconsistent)
	}
	if got := g.Stats().Failovers.Load(); got < 1 {
		t.Errorf("failovers = %d, want >= 1 (dead replica traffic must have moved)", got)
	}
	snap := g.Snapshot()
	if snap.BreakerOpens < 1 {
		t.Errorf("breaker opens = %d, want >= 1", snap.BreakerOpens)
	}

	// Byte-identical Decisions regardless of which replica served them.
	if len(rep.Decisions) != len(baseRep.Decisions) {
		t.Fatalf("decision count %d != baseline %d", len(rep.Decisions), len(baseRep.Decisions))
	}
	for i := range rep.Decisions {
		if rep.Decisions[i] != baseRep.Decisions[i] {
			t.Errorf("decision %d differs from single-replica baseline:\n fleet: %s\n base:  %s",
				i, rep.Decisions[i], baseRep.Decisions[i])
		}
	}

	// Restart the victim on its original address: the prober re-admits
	// it and the fleet heals to 3.
	reps[victim].restart(t)
	waitFor(t, "killed replica re-admitted after restart", func() bool {
		return g.Snapshot().HealthyReplicas == 3 && g.ring.Len() == 3
	})

	// Cancel machinery through the gateway (the service-smoke cancel
	// injection): aborted clients are counted, never turned into errors.
	cancelOpts := loadOpts
	// Never-seen kernels: a cold compile always outlives the 1ms cancel,
	// whereas a warm hit through the gateway can beat it.
	cancelOpts.Seed = loadOpts.Seed + 1
	cancelOpts.Requests = 12
	cancelOpts.Kernels = cancelOpts.Requests
	cancelOpts.CancelFrac = 0.25
	cancelOpts.CancelAfter = time.Millisecond
	cancelOpts.CaptureDecisions = false
	crep, err := server.RunLoad(context.Background(), ts.URL, cancelOpts)
	if err != nil {
		t.Fatalf("cancel-injection load: %v", err)
	}
	if crep.Failed > 0 {
		t.Errorf("cancel-injection run had %d hard failures", crep.Failed)
	}
	if crep.Canceled == 0 {
		t.Error("cancel injection produced no canceled requests")
	}
}

// TestGatewayHedging wedges the first compile (the service-smoke wedge
// machinery: a pass-pipeline gate that blocks exactly one compile) and
// asserts the hedge fires to the failover replica, wins, and the client
// sees a normal 200.
func TestGatewayHedging(t *testing.T) {
	a := startReplica(t, server.Config{Workers: 2})
	b := startReplica(t, server.Config{Workers: 2})
	g, ts := startGateway(t, GatewayConfig{
		Replicas:   []string{a.url(), b.url()},
		Health:     HealthConfig{Period: time.Hour}, // probes out of the picture
		Retry:      retry.Policy{MaxAttempts: 2, BaseDelay: 5 * time.Millisecond},
		HedgeAfter: 40 * time.Millisecond,
	})

	// Arm a one-shot wedge: the first compile to enter the pass pipeline
	// parks until released; every later compile passes through. The
	// primary gets wedged, the hedge lands on the failover replica and
	// completes.
	var armed atomic.Bool
	armed.Store(true)
	release := make(chan struct{})
	entered := make(chan struct{})
	passes.SetGlobalWrap(func(p passes.Pass) passes.Pass {
		return passes.After(p, func(k *ptx.Kernel, _ *passes.AnalysisManager) error {
			if armed.CompareAndSwap(true, false) {
				close(entered)
				<-release
			}
			return nil
		})
	})
	defer passes.SetGlobalWrap(nil)
	defer close(release)

	req := server.CompileRequest{PTX: hedgePTX(t), Block: 64}
	buf, _ := json.Marshal(req)
	resp, err := http.Post(ts.URL+"/v1/compile", "application/json", bytes.NewReader(buf))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	select {
	case <-entered:
	default:
		t.Log("note: wedge never engaged (request may have raced); still asserting outcome")
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("hedged request status = %d, want 200", resp.StatusCode)
	}
	var cr server.CompileResponse
	if err := json.NewDecoder(resp.Body).Decode(&cr); err != nil {
		t.Fatal(err)
	}
	if cr.Reg <= 0 || cr.TLP <= 0 {
		t.Errorf("implausible hedged decision: %+v", cr)
	}
	if got := g.Stats().Hedges.Load(); got != 1 {
		t.Errorf("hedges = %d, want 1", got)
	}
	if got := g.Stats().HedgeWins.Load(); got != 1 {
		t.Errorf("hedge wins = %d, want 1 (the wedged primary cannot have answered first)", got)
	}
}

// hedgePTX builds a small compile subject.
func hedgePTX(t *testing.T) string {
	t.Helper()
	b := ptx.NewBuilder("k_hedge")
	b.Param("data", ptx.U64).Param("out", ptx.U64)
	pd, po := b.Reg(ptx.U64), b.Reg(ptx.U64)
	b.LdParam(ptx.U64, pd, "data").LdParam(ptx.U64, po, "out")
	gi := b.GlobalIndex()
	addr := b.AddrOf(pd, gi, 4)
	v := b.Reg(ptx.F32)
	b.Ld(ptx.SpaceGlobal, ptx.F32, v, ptx.MemReg(addr, 0))
	hots := b.Regs(ptx.F32, 6)
	for i, r := range hots {
		b.Mov(ptx.F32, r, ptx.FImm(float64(i)))
	}
	for _, r := range hots {
		b.Mad(ptx.F32, r, ptx.R(r), ptx.FImm(1.5), ptx.R(v))
	}
	sum := b.Reg(ptx.F32)
	b.Mov(ptx.F32, sum, ptx.FImm(0))
	for _, r := range hots {
		b.Add(ptx.F32, sum, ptx.R(sum), ptx.R(r))
	}
	oa := b.AddrOf(po, gi, 4)
	b.St(ptx.SpaceGlobal, ptx.F32, ptx.MemReg(oa, 0), ptx.R(sum))
	b.Exit()
	return ptx.Print(b.Kernel())
}

// TestGatewayDrainEjection: a draining replica (readyz 503, listener
// still up — cratd's DrainGrace contract) is ejected by the prober and
// its traffic routes to the survivor with zero errors.
func TestGatewayDrainEjection(t *testing.T) {
	a := startReplica(t, server.Config{Workers: 2})
	b := startReplica(t, server.Config{Workers: 2})
	g, ts := startGateway(t, GatewayConfig{
		Replicas: []string{a.url(), b.url()},
		Health:   HealthConfig{Period: 30 * time.Millisecond, UnhealthyAfter: 2, HealthyAfter: 2},
		Retry:    retry.Policy{MaxAttempts: 3, BaseDelay: 5 * time.Millisecond},
	})
	waitFor(t, "both replicas in ring", func() bool { return g.ring.Len() == 2 })

	// Drain replica A. Its Server has no attached listener-shutdown (we
	// serve its handler ourselves), which models exactly the DrainGrace
	// window: readyz already 503, listener still answering.
	drainDone := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		drainDone <- a.s.Shutdown(ctx)
	}()
	waitFor(t, "draining replica ejected from ring", func() bool { return g.ring.Len() == 1 })
	if err := <-drainDone; err != nil {
		t.Fatalf("replica drain: %v", err)
	}

	// All traffic — including keys A owned — now lands on B, cleanly.
	for i := 0; i < 6; i++ {
		req := server.CompileRequest{PTX: hedgePTX(t), Block: 64, OptTLP: i + 1}
		buf, _ := json.Marshal(req)
		resp, err := http.Post(ts.URL+"/v1/compile", "application/json", bytes.NewReader(buf))
		if err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Errorf("request %d: status %d, want 200", i, resp.StatusCode)
		}
		if got := resp.Header.Get("X-Crat-Replica"); got != b.url() {
			t.Errorf("request %d served by %s, want survivor %s", i, got, b.url())
		}
	}
	snap := g.Snapshot()
	if snap.Ejections < 1 {
		t.Errorf("ejections = %d, want >= 1", snap.Ejections)
	}
}

// TestGatewayShedRetrySameReplica: a 429 is retried against the SAME
// replica (its cache owns the key) honoring Retry-After, and the retry
// counter advances. Fake replicas keep the schedule deterministic.
func TestGatewayShedRetrySameReplica(t *testing.T) {
	var hits atomic.Int64
	shedOnce := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/v1/compile" {
			w.WriteHeader(http.StatusOK)
			return
		}
		if hits.Add(1) == 1 {
			w.Header().Set("Retry-After", "0")
			w.WriteHeader(http.StatusTooManyRequests)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		fmt.Fprint(w, `{"kernel":"k","reg":4,"tlp":8,"ptx":"x"}`)
	}))
	defer shedOnce.Close()

	g, ts := startGateway(t, GatewayConfig{
		Replicas: []string{shedOnce.URL},
		Health:   HealthConfig{Period: time.Hour},
		Retry:    retry.Policy{MaxAttempts: 3, BaseDelay: time.Millisecond},
	})
	buf, _ := json.Marshal(server.CompileRequest{PTX: ".visible .entry k()", Block: 32})
	resp, err := http.Post(ts.URL+"/v1/compile", "application/json", bytes.NewReader(buf))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d, want 200 after retried shed", resp.StatusCode)
	}
	if got := hits.Load(); got != 2 {
		t.Errorf("replica hits = %d, want 2 (shed once, then success)", got)
	}
	if got := g.Stats().Retries.Load(); got != 1 {
		t.Errorf("retries = %d, want 1", got)
	}
}

// TestGatewayBreakerShortCircuits: with the lone replica dead, the
// first request burns its whole retry budget against it — the attempt
// loop wraps the one-replica ring — failing through as 502 and tripping
// the Failures=2 breaker in a single request; once open, requests are
// answered 503 + Retry-After immediately without touching the replica.
func TestGatewayBreakerShortCircuits(t *testing.T) {
	dead := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {}))
	deadURL := dead.URL
	dead.Close() // connection refused from here on

	g, ts := startGateway(t, GatewayConfig{
		Replicas: []string{deadURL},
		Health:   HealthConfig{Period: time.Hour},
		Breaker:  BreakerConfig{Failures: 2, Cooldown: time.Hour},
		Retry:    retry.Policy{MaxAttempts: 2, BaseDelay: time.Millisecond},
	})
	buf, _ := json.Marshal(server.CompileRequest{PTX: ".visible .entry k()", Block: 32})
	statuses := make([]int, 3)
	for i := range statuses {
		resp, err := http.Post(ts.URL+"/v1/compile", "application/json", bytes.NewReader(buf))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		statuses[i] = resp.StatusCode
		if statuses[i] == http.StatusServiceUnavailable && resp.Header.Get("Retry-After") == "" {
			t.Error("503 without Retry-After")
		}
	}
	if statuses[0] != http.StatusBadGateway {
		t.Errorf("pre-open status = %v, want 502 (both attempts failed through)", statuses[0])
	}
	if statuses[1] != http.StatusServiceUnavailable || statuses[2] != http.StatusServiceUnavailable {
		t.Errorf("post-open statuses = %v, want [_ 503 503] (breaker short-circuit)", statuses)
	}
	if got := g.Breaker(deadURL).State(); got != BreakerOpen {
		t.Errorf("breaker state = %v, want open", got)
	}
	if got := g.Stats().NoReplica.Load(); got != 2 {
		t.Errorf("no_replica = %d, want 2", got)
	}
}

// TestGatewayStickyRouting: identical requests land on one replica,
// different requests spread across the fleet (fake replicas echo their
// identity).
func TestGatewayStickyRouting(t *testing.T) {
	mk := func(id string) *httptest.Server {
		return httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			w.Header().Set("Content-Type", "application/json")
			fmt.Fprintf(w, `{"kernel":%q}`, id)
		}))
	}
	r1, r2, r3 := mk("r1"), mk("r2"), mk("r3")
	defer r1.Close()
	defer r2.Close()
	defer r3.Close()

	_, ts := startGateway(t, GatewayConfig{
		Replicas: []string{r1.URL, r2.URL, r3.URL},
		Health:   HealthConfig{Period: time.Hour},
	})
	served := func(req server.CompileRequest) string {
		buf, _ := json.Marshal(req)
		resp, err := http.Post(ts.URL+"/v1/compile", "application/json", bytes.NewReader(buf))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var out struct {
			Kernel string `json:"kernel"`
		}
		json.NewDecoder(resp.Body).Decode(&out)
		return out.Kernel
	}
	// Stickiness: one request, ten sends, one replica.
	first := served(server.CompileRequest{PTX: "sticky", Block: 64})
	for i := 0; i < 9; i++ {
		if got := served(server.CompileRequest{PTX: "sticky", Block: 64}); got != first {
			t.Fatalf("identical request moved replica: %s then %s", first, got)
		}
	}
	// Spread: distinct keys reach more than one replica.
	seen := map[string]bool{}
	for i := 0; i < 24; i++ {
		seen[served(server.CompileRequest{PTX: fmt.Sprintf("kernel-%d", i), Block: 64})] = true
	}
	if len(seen) < 2 {
		t.Errorf("24 distinct keys all routed to one replica: %v", seen)
	}
}
