package harness

import (
	"errors"
	"testing"

	"crat/internal/checkpoint"
	"crat/internal/core"
	"crat/internal/gpusim"
	"crat/internal/ptx"
	"crat/internal/regalloc"
	"crat/internal/workloads"
)

// TestSimKeyDistinguishesLaunches: two launches share a key exactly when
// everything the simulator reads is equal. Launches that differ only in
// the input variant, the scheduler, the register count, the TLP limit, a
// spill tag or an L1-bypass flag get distinct keys.
func TestSimKeyDistinguishesLaunches(t *testing.T) {
	arch := gpusim.FermiConfig()
	p := tinyProfile()
	app := p.App()
	alloc, err := regalloc.Allocate(app.Kernel, regalloc.Options{Regs: 16})
	if err != nil {
		t.Fatal(err)
	}
	k, regs := alloc.Kernel, alloc.UsedRegs
	key := func(app core.App, arch gpusim.Config, k *ptx.Kernel, regs, tlp int) string {
		t.Helper()
		s, err := simKey(app, arch, k, regs, tlp)
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	base := key(app, arch, k, regs, 2)
	if again := key(p.App(), arch, k.Clone(), regs, 2); again != base {
		t.Fatalf("an identical launch got a different key: %s vs %s", again, base)
	}

	lrr := arch
	lrr.Scheduler = gpusim.SchedLRR
	tagged, bypass := k.Clone(), k.Clone()
	for i := range tagged.Insts {
		if in := &tagged.Insts[i]; in.Meta == ptx.MetaNone {
			in.Meta = ptx.MetaSpillAddr
			break
		}
	}
	for i := range bypass.Insts {
		if in := &bypass.Insts[i]; in.Op == ptx.OpLd && in.Space == ptx.SpaceGlobal {
			in.Bypass = true
		}
	}
	variants := map[string]string{
		"input a":   key(p.AppWithInput(workloads.Input{Name: "a", GridScale: 1, DataScale: 1}), arch, k, regs, 2),
		"input b":   key(p.AppWithInput(workloads.Input{Name: "b", GridScale: 1, DataScale: 2}), arch, k, regs, 2),
		"scheduler": key(app, lrr, k, regs, 2),
		"regs":      key(app, arch, k, regs+1, 2),
		"tlp":       key(app, arch, k, regs, 3),
		"spill tag": key(app, arch, tagged, regs, 2),
		"bypass":    key(app, arch, bypass, regs, 2),
	}
	seen := map[string]string{base: "base"}
	for name, v := range variants {
		if prev, dup := seen[v]; dup {
			t.Errorf("%s shares its key with %s", name, prev)
		}
		seen[v] = name
	}
}

// TestOptTLPModeReusesSweepLaunch: Mode(OptTLP) launches the profiling
// sweep's kernel at OptTLP, so it is served by the memo and the app
// simulates MaxTLP launches, not MaxTLP + 1.
func TestOptTLPModeReusesSweepLaunch(t *testing.T) {
	s, err := NewSession(gpusim.FermiConfig())
	if err != nil {
		t.Fatal(err)
	}
	p := tinyProfile()
	a, _, err := s.Analysis(p)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := s.Mode(p, core.ModeOptTLP); err != nil {
		t.Fatal(err)
	}
	run, memoHits, _ := s.SimCounts()
	if run != a.MaxTLP || len(s.computeCounts()) != a.MaxTLP {
		t.Errorf("simulated %d launches under %d keys, want MaxTLP = %d", run, len(s.computeCounts()), a.MaxTLP)
	}
	if memoHits != 1 {
		t.Errorf("memo hits = %d, want 1 (the OptTLP launch)", memoHits)
	}
}

// TestOldRecordJournalIsStale: a journal written under the configuration
// hash that predates the record schema tag (and holds that era's
// "analysis/" records) fails -resume with ErrStale instead of loading
// keys nothing reads.
func TestOldRecordJournalIsStale(t *testing.T) {
	s, err := NewSession(gpusim.FermiConfig())
	if err != nil {
		t.Fatal(err)
	}
	oldKey, err := checkpoint.Hash(struct {
		Arch  gpusim.Config
		Costs gpusim.Costs
	}{s.Arch, s.Costs})
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	st, err := checkpoint.Open(dir, oldKey, "fermi", false)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Put("analysis/TINY", map[string]int{"optTLP": 2}); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := checkpoint.Open(dir, s.ConfigHash(), "fermi", true); !errors.Is(err, checkpoint.ErrStale) {
		t.Fatalf("resume of an old-record journal = %v, want ErrStale", err)
	}
}
