package harness

import (
	"bytes"
	"testing"

	"crat/internal/backend"
	"crat/internal/core"
	"crat/internal/gpusim"
)

// renderHeadToHead builds the backend head-to-head table over the small
// synthetic apps on a fresh session with the given worker count and
// returns its rendered bytes.
func renderHeadToHead(t *testing.T, workers int) []byte {
	t.Helper()
	s, err := NewSession(gpusim.FermiConfig())
	if err != nil {
		t.Fatal(err)
	}
	s.SetWorkers(workers)
	tab, err := s.backendHeadToHead(concApps())
	if err != nil {
		t.Fatalf("backendHeadToHead(workers=%d): %v", workers, err)
	}
	var buf bytes.Buffer
	tab.Render(&buf)
	return buf.Bytes()
}

// TestBackendHeadToHeadDeterministic requires the head-to-head sweep to
// render byte-identically when run twice and across worker counts (-j 1
// vs -j 8): backend evaluation, union selection, and note aggregation
// must all be order-independent.
func TestBackendHeadToHeadDeterministic(t *testing.T) {
	serial := renderHeadToHead(t, 1)
	if again := renderHeadToHead(t, 1); !bytes.Equal(serial, again) {
		t.Fatalf("serial head-to-head not reproducible:\n--- first\n%s--- second\n%s", serial, again)
	}
	parallel := renderHeadToHead(t, 8)
	if !bytes.Equal(serial, parallel) {
		t.Fatalf("head-to-head differs between -j 1 and -j 8:\n--- serial\n%s--- parallel\n%s", serial, parallel)
	}
	if again := renderHeadToHead(t, 8); !bytes.Equal(parallel, again) {
		t.Fatalf("parallel head-to-head not reproducible")
	}
}

// TestBackendDelegatesToModes requires the crat and crat-local backends
// to share the comparison modes' caches (one simulation, two names),
// every backend's launch to be simulated exactly once, and every backend
// evaluation to attribute its decision to the right backend.
func TestBackendDelegatesToModes(t *testing.T) {
	s, err := NewSession(gpusim.FermiConfig())
	if err != nil {
		t.Fatal(err)
	}
	s.SetWorkers(1)
	p := concApps()[0]
	keys := make(map[string]string)
	for _, name := range backend.Names() {
		_, d, err := s.Backend(p, name)
		if err != nil {
			t.Fatalf("Backend(%s): %v", name, err)
		}
		if d.Backend != name {
			t.Fatalf("Backend(%s): decision attributed to %q", name, d.Backend)
		}
		if keys[name], err = simKey(s.App(p), s.Arch, d.Chosen.Kernel(), d.Chosen.UsedRegs(), d.Chosen.TLP); err != nil {
			t.Fatal(err)
		}
	}
	for name, m := range map[string]core.Mode{"crat": core.ModeCRAT, "crat-local": core.ModeCRATLocal} {
		_, dm, _ := s.Mode(p, m)
		if _, d, _ := s.Backend(p, name); d != dm {
			t.Fatalf("%s did not delegate to the %s mode cache", name, m)
		}
	}
	counts := s.computeCounts()
	for name, key := range keys {
		if counts[key] != 1 {
			t.Fatalf("%s launch simulated %d times, want 1: %v", name, counts[key], counts)
		}
	}
}
