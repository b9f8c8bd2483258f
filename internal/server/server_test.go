package server

import (
	"bytes"
	"context"
	"encoding/json"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"crat/internal/passes"
	"crat/internal/ptx"
)

// testPTX builds a small register-pressured kernel with hot f32
// accumulators (so the design-space search has real spill decisions to
// make, and the degraded-mode tests have f32 adds to corrupt) and returns
// its module text.
func testPTX(name string, hot int) string {
	b := ptx.NewBuilder(name)
	b.Param("data", ptx.U64).Param("out", ptx.U64)
	pd, po := b.Reg(ptx.U64), b.Reg(ptx.U64)
	b.LdParam(ptx.U64, pd, "data").LdParam(ptx.U64, po, "out")
	gi := b.GlobalIndex()
	addr := b.AddrOf(pd, gi, 4)
	v := b.Reg(ptx.F32)
	b.Ld(ptx.SpaceGlobal, ptx.F32, v, ptx.MemReg(addr, 0))
	hots := b.Regs(ptx.F32, hot)
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

func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts
}

// post sends a compile request and decodes the response body into out
// (which may be a *CompileResponse or a *map for error bodies).
func post(t *testing.T, url string, req CompileRequest, out any) int {
	t.Helper()
	buf, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url+"/v1/compile", "application/json", bytes.NewReader(buf))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("decoding %d response: %v", resp.StatusCode, err)
		}
	}
	return resp.StatusCode
}

func TestCompileOKAndMemoryCache(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 2, VerifyDefault: true})
	req := CompileRequest{PTX: testPTX("k_ok", 10), Block: 64}

	var r1 CompileResponse
	if code := post(t, ts.URL, req, &r1); code != http.StatusOK {
		t.Fatalf("status = %d, want 200", code)
	}
	if r1.Cached || r1.CacheTier != "" {
		t.Errorf("first compile reported cached (%q)", r1.CacheTier)
	}
	if r1.Reg <= 0 || r1.TLP <= 0 || r1.Candidates == 0 {
		t.Errorf("implausible decision: %+v", r1)
	}
	if r1.Degraded {
		t.Errorf("honest compile degraded: %s", r1.Divergence)
	}
	if _, err := ptx.ParseModule(r1.PTX); err != nil {
		t.Errorf("response PTX does not parse: %v", err)
	}

	var r2 CompileResponse
	if code := post(t, ts.URL, req, &r2); code != http.StatusOK {
		t.Fatalf("status = %d, want 200", code)
	}
	if !r2.Cached || r2.CacheTier != "memory" {
		t.Errorf("second identical compile not served from memory tier: cached=%v tier=%q", r2.Cached, r2.CacheTier)
	}
	if r2.PTX != r1.PTX || r2.Reg != r1.Reg || r2.TLP != r1.TLP {
		t.Errorf("cached response differs from computed one")
	}
	if got := s.Stats().Computes.Load(); got != 1 {
		t.Errorf("computes = %d, want 1", got)
	}
	if got := s.Stats().MemoryHits.Load(); got != 1 {
		t.Errorf("memory hits = %d, want 1", got)
	}
}

func TestBadRequests(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	cases := []struct {
		name string
		req  CompileRequest
		want int
	}{
		{"missing ptx", CompileRequest{Block: 64}, http.StatusBadRequest},
		{"missing block", CompileRequest{PTX: testPTX("k_b", 4)}, http.StatusBadRequest},
		{"bad arch", CompileRequest{PTX: testPTX("k_b", 4), Block: 64, Arch: "volta"}, http.StatusBadRequest},
		{"negative opttlp", CompileRequest{PTX: testPTX("k_b", 4), Block: 64, OptTLP: -1}, http.StatusBadRequest},
		{"unparsable ptx", CompileRequest{PTX: "this is not ptx", Block: 64}, http.StatusUnprocessableEntity},
		{"missing kernel", CompileRequest{PTX: testPTX("k_b", 4), Kernel: "nope", Block: 64}, http.StatusUnprocessableEntity},
		{"block too large to launch", CompileRequest{PTX: testPTX("k_b", 4), Block: 2048}, http.StatusUnprocessableEntity},
		{"no_shared_spill with backends", CompileRequest{PTX: testPTX("k_b", 4), Block: 64, NoSharedSpill: true, Backends: []string{"crat"}}, http.StatusBadRequest},
	}
	for _, tc := range cases {
		var body map[string]any
		if code := post(t, ts.URL, tc.req, &body); code != tc.want {
			t.Errorf("%s: status = %d, want %d (body %v)", tc.name, code, tc.want, body)
		}
		if msg, _ := body["error"].(string); msg == "" {
			t.Errorf("%s: no error message in body", tc.name)
		}
	}
	// Malformed JSON outright.
	resp, err := http.Post(ts.URL+"/v1/compile", "application/json", strings.NewReader("{nope"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("malformed JSON: status = %d, want 400", resp.StatusCode)
	}
}

// TestLoadShedding fills the worker pool and the admission queue, then
// asserts the next request is shed with 429 + Retry-After instead of
// queueing unboundedly.
func TestLoadShedding(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1, QueueCapacity: 1})

	// Occupy the only worker slot so any admitted request waits.
	s.workers <- struct{}{}
	defer func() { <-s.workers }()

	// First request takes the only admission token and parks waiting for a
	// worker; we hold it in flight from a goroutine.
	admitted := make(chan int, 1)
	go func() {
		var out map[string]any
		admitted <- post(t, ts.URL, CompileRequest{PTX: testPTX("k_shed_a", 6), Block: 64, TimeoutMs: 2000}, &out)
	}()
	waitFor(t, func() bool { return s.Stats().Admitted.Load() == 1 })

	// Queue is now full: the next request must be shed immediately.
	buf, _ := json.Marshal(CompileRequest{PTX: testPTX("k_shed_b", 6), Block: 64})
	resp, err := http.Post(ts.URL+"/v1/compile", "application/json", bytes.NewReader(buf))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status = %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("429 without Retry-After")
	}
	if got := s.Stats().Shed.Load(); got != 1 {
		t.Errorf("shed = %d, want 1", got)
	}

	// The parked request runs out of its deadline while queued: 504, not a
	// hang — admitted latency is bounded by the deadline.
	if code := <-admitted; code != http.StatusGatewayTimeout {
		t.Errorf("parked request: status = %d, want 504", code)
	}
	if got := s.Stats().DeadlineExceeded.Load(); got != 1 {
		t.Errorf("deadline_exceeded = %d, want 1", got)
	}
}

// TestPanicIsolation injects a panic into the pass pipeline and asserts it
// is confined to its request: a 500 for that compile, a healthy 200 for
// the next one.
func TestPanicIsolation(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1})

	passes.SetGlobalWrap(func(p passes.Pass) passes.Pass {
		return passes.After(p, func(k *ptx.Kernel, _ *passes.AnalysisManager) error {
			panic("injected pass panic")
		})
	})
	clear := sync.OnceFunc(func() { passes.SetGlobalWrap(nil) })
	defer clear()

	var body map[string]any
	if code := post(t, ts.URL, CompileRequest{PTX: testPTX("k_panic", 6), Block: 64}, &body); code != http.StatusInternalServerError {
		t.Fatalf("panicking compile: status = %d, want 500 (body %v)", code, body)
	}
	if msg, _ := body["error"].(string); !strings.Contains(msg, "injected pass panic") {
		t.Errorf("error body %q does not carry the panic value", msg)
	}
	if got := s.Stats().Panics.Load(); got != 1 {
		t.Errorf("panics = %d, want 1", got)
	}

	// The daemon survived; an honest compile still works.
	clear()
	var ok CompileResponse
	if code := post(t, ts.URL, CompileRequest{PTX: testPTX("k_after_panic", 6), Block: 64}, &ok); code != http.StatusOK {
		t.Fatalf("compile after panic: status = %d, want 200", code)
	}
}

// TestGracefulDrain holds a compile in flight, starts Shutdown, and
// asserts: readyz flips to 503, new compiles are refused, the in-flight
// request completes successfully, and Shutdown returns nil.
func TestGracefulDrain(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1, CacheDir: t.TempDir()})

	entered := make(chan struct{})
	release := make(chan struct{})
	var once sync.Once
	passes.SetGlobalWrap(func(p passes.Pass) passes.Pass {
		return passes.After(p, func(k *ptx.Kernel, _ *passes.AnalysisManager) error {
			once.Do(func() {
				close(entered)
				<-release
			})
			return nil
		})
	})
	defer passes.SetGlobalWrap(nil)

	inflight := make(chan struct {
		code int
		resp CompileResponse
	}, 1)
	go func() {
		var r CompileResponse
		code := post(t, ts.URL, CompileRequest{PTX: testPTX("k_drain", 6), Block: 64, TimeoutMs: 10000}, &r)
		inflight <- struct {
			code int
			resp CompileResponse
		}{code, r}
	}()
	<-entered

	drained := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		drained <- s.Shutdown(ctx)
	}()
	waitFor(t, func() bool { return s.draining.Load() })

	// Draining: not ready, and new work is refused.
	rz, err := http.Get(ts.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	rz.Body.Close()
	if rz.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("readyz while draining: %d, want 503", rz.StatusCode)
	}
	if code := post(t, ts.URL, CompileRequest{PTX: testPTX("k_refused", 6), Block: 64}, nil); code != http.StatusServiceUnavailable {
		t.Errorf("compile while draining: %d, want 503", code)
	}

	// Unblock the in-flight compile: it must finish cleanly, then the
	// drain completes.
	close(release)
	got := <-inflight
	if got.code != http.StatusOK {
		t.Fatalf("in-flight request during drain: status = %d, want 200", got.code)
	}
	if err := <-drained; err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
}

// TestPersistentCacheAcrossRestart compiles on one server instance, then
// opens a second one on the same cache directory: the same request must be
// answered from the persistent tier with zero computes.
func TestPersistentCacheAcrossRestart(t *testing.T) {
	dir := t.TempDir()
	req := CompileRequest{PTX: testPTX("k_warm", 8), Block: 64}

	a, tsA := newTestServer(t, Config{Workers: 1, CacheDir: dir})
	var r1 CompileResponse
	if code := post(t, tsA.URL, req, &r1); code != http.StatusOK {
		t.Fatalf("first compile: %d", code)
	}
	if err := a.Shutdown(context.Background()); err != nil {
		t.Fatalf("drain: %v", err)
	}

	b, tsB := newTestServer(t, Config{Workers: 1, CacheDir: dir})
	var r2 CompileResponse
	if code := post(t, tsB.URL, req, &r2); code != http.StatusOK {
		t.Fatalf("warm compile: %d", code)
	}
	if !r2.Cached || r2.CacheTier != "persistent" {
		t.Errorf("restart did not serve from persistent tier: cached=%v tier=%q", r2.Cached, r2.CacheTier)
	}
	if r2.PTX != r1.PTX {
		t.Errorf("persistent replay differs from original compile")
	}
	if got := b.Stats().Computes.Load(); got != 0 {
		t.Errorf("restarted daemon computes = %d, want 0", got)
	}
	if got := b.Stats().PersistentHits.Load(); got != 1 {
		t.Errorf("persistent hits = %d, want 1", got)
	}
}

// waitFor polls cond until it holds or 5s pass.
func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatal("condition not reached within 5s")
}

// TestReadyzFlipsBeforeDrain pins the ordering a health-checked gateway
// depends on: the moment Shutdown begins, /readyz answers 503 while the
// listener is still accepting connections (/healthz still 200, so the
// replica is alive for in-flight work) — the flip is observable BEFORE
// the listener closes, for at least the DrainGrace window.
func TestReadyzFlipsBeforeDrain(t *testing.T) {
	s, err := New(Config{Workers: 1, DrainGrace: 30 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	served := make(chan error, 1)
	go func() { served <- s.Serve(l) }()
	url := "http://" + l.Addr().String()

	get := func(path string) int {
		t.Helper()
		resp, err := http.Get(url + path)
		if err != nil {
			t.Fatalf("GET %s during drain grace: %v (listener closed before readyz flip was observable)", path, err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	if code := get("/readyz"); code != http.StatusOK {
		t.Fatalf("readyz before drain = %d, want 200", code)
	}

	// Begin the drain with a grace long enough that the listener is
	// guaranteed still open when we probe; cancel the grace wait once the
	// ordering has been observed.
	ctx, cancel := context.WithCancel(context.Background())
	drained := make(chan error, 1)
	go func() { drained <- s.Shutdown(ctx) }()
	waitFor(t, func() bool { return s.draining.Load() })

	// The ordering under test: not-ready first, listener still up.
	if code := get("/readyz"); code != http.StatusServiceUnavailable {
		t.Errorf("readyz at drain start = %d, want 503", code)
	}
	if code := get("/healthz"); code != http.StatusOK {
		t.Errorf("healthz while draining = %d, want 200 (liveness must outlast readiness)", code)
	}

	cancel() // cut the grace short; the drain proceeds to close the listener
	<-drained
	if err := <-served; err != nil {
		t.Fatalf("Serve: %v", err)
	}
}

func TestHealthAndStats(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	hz, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	hz.Body.Close()
	if hz.StatusCode != http.StatusOK {
		t.Errorf("healthz = %d", hz.StatusCode)
	}
	sz, err := http.Get(ts.URL + "/statsz")
	if err != nil {
		t.Fatal(err)
	}
	defer sz.Body.Close()
	var snap StatsSnapshot
	if err := json.NewDecoder(sz.Body).Decode(&snap); err != nil {
		t.Fatalf("statsz decode: %v", err)
	}
	if snap.Build == "" || snap.Workers != 1 {
		t.Errorf("statsz snapshot implausible: %+v", snap)
	}
}
