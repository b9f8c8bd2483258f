package server

import (
	"encoding/json"
	"net/http"
	"strings"
	"testing"
)

// TestBackendsInCacheKey is the regression test for the cache keys: two
// requests identical except for their resolved backend set must never
// share a normalize (daemon cache) key or a RouteKey (gateway placement)
// — a cached Decision computed by one backend set must be unreachable
// from another. Order is part of the identity: it is the TPSC tie-break.
// The cache key hashes the resolved list, so a request naming no backends
// shares its key with one naming the default ["crat"]; RouteKey hashes the
// wire request and keeps them apart.
func TestBackendsInCacheKey(t *testing.T) {
	s, err := New(Config{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	base := CompileRequest{PTX: testPTX("bk", 8), Block: 64}
	variants := []CompileRequest{base, base, base, base, base}
	variants[1].Backends = []string{"crat"}
	variants[2].Backends = []string{"regdem"}
	variants[3].Backends = []string{"crat", "regdem"}
	variants[4].Backends = []string{"regdem", "crat"} // order matters
	normKeys := make(map[string]int)
	routeKeys := make(map[string]int)
	var defaultKey string
	for i, req := range variants {
		job, err := s.normalize(req)
		if err != nil {
			t.Fatalf("normalize variant %d: %v", i, err)
		}
		if i == 0 {
			defaultKey = job.key // checked against variant 1 below
		} else if prev, dup := normKeys[job.key]; dup {
			t.Errorf("variants %d and %d share a cache key: backends %v vs %v collide",
				prev, i, variants[prev].Backends, req.Backends)
		} else {
			normKeys[job.key] = i
		}
		rk, err := RouteKey(req)
		if err != nil {
			t.Fatalf("RouteKey variant %d: %v", i, err)
		}
		if prev, dup := routeKeys[rk]; dup {
			t.Errorf("variants %d and %d share a route key: backends %v vs %v collide",
				prev, i, variants[prev].Backends, req.Backends)
		}
		routeKeys[rk] = i
	}
	if normKeys[defaultKey] != 1 {
		t.Errorf("a request naming no backends does not share the explicit [crat] request's cache key")
	}
	// Stability: the same backend set must keep hashing to the same keys.
	again, err := s.normalize(variants[3])
	if err != nil {
		t.Fatal(err)
	}
	if normKeys[again.key] != 3 {
		t.Errorf("re-normalizing the same request changed its cache key")
	}

	// The daemon's default backend set is part of a request's identity
	// too: the same wire request on a differently-configured daemon must
	// not replay the other configuration's cached Decision.
	sd, err := New(Config{Workers: 1, DefaultBackends: []string{"regdem"}})
	if err != nil {
		t.Fatal(err)
	}
	job, err := sd.normalize(base)
	if err != nil {
		t.Fatal(err)
	}
	if _, dup := normKeys[job.key]; !dup {
		// base resolved under DefaultBackends=["regdem"] must equal the
		// explicit ["regdem"] request, and nothing else.
		t.Errorf("DefaultBackends-resolved key matches no explicit variant")
	} else if normKeys[job.key] != 2 {
		t.Errorf("DefaultBackends [regdem] hashed like variant %d, want the explicit regdem request", normKeys[job.key])
	}

	if _, err := s.normalize(CompileRequest{PTX: base.PTX, Block: 64, Backends: []string{"nope"}}); err == nil ||
		!strings.Contains(err.Error(), "unknown backend") {
		t.Errorf("unknown backend not rejected at normalize: %v", err)
	}
	if _, err := New(Config{Workers: 1, DefaultBackends: []string{"nope"}}); err == nil {
		t.Errorf("unknown DefaultBackends accepted at startup")
	}
}

// TestNoSharedSpillSelectsCratLocal: no_shared_spill is resolved into the
// backend list, so it compiles and caches exactly like naming crat-local.
func TestNoSharedSpillSelectsCratLocal(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1, DefaultBackends: []string{"crat", "regdem"}})
	req := CompileRequest{PTX: testPTX("nss", 8), Block: 64, NoSharedSpill: true}
	flag, err := s.normalize(req)
	if err != nil {
		t.Fatal(err)
	}
	named, err := s.normalize(CompileRequest{PTX: req.PTX, Block: 64, Backends: []string{"crat-local"}})
	if err != nil {
		t.Fatal(err)
	}
	if flag.key != named.key {
		t.Errorf("no_shared_spill and backends [crat-local] hash to different cache keys")
	}
	var resp CompileResponse
	if code := post(t, ts.URL, req, &resp); code != http.StatusOK {
		t.Fatalf("compile = %d", code)
	}
	if resp.Backend != "crat-local" {
		t.Errorf("no_shared_spill compiled with backend %q, want crat-local", resp.Backend)
	}
}

// TestCompileBackendAttribution compiles with an explicit backend and
// checks the response names it, and that /statsz counts the serve in
// backend_wins.
func TestCompileBackendAttribution(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	req := CompileRequest{PTX: testPTX("attr", 8), Block: 64, Backends: []string{"regdem"}}
	var resp CompileResponse
	if code := post(t, ts.URL, req, &resp); code != http.StatusOK {
		t.Fatalf("compile = %d", code)
	}
	if resp.Backend != "regdem" {
		t.Fatalf("response backend = %q, want regdem", resp.Backend)
	}
	sz, err := http.Get(ts.URL + "/statsz")
	if err != nil {
		t.Fatal(err)
	}
	defer sz.Body.Close()
	var snap StatsSnapshot
	if err := json.NewDecoder(sz.Body).Decode(&snap); err != nil {
		t.Fatal(err)
	}
	if snap.BackendWins["regdem"] != 1 {
		t.Fatalf("statsz backend_wins = %v, want regdem: 1", snap.BackendWins)
	}
}
