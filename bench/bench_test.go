package main

import (
	"path/filepath"
	"reflect"
	"regexp"
	"sort"
	"testing"
	"time"

	"crat/internal/core"
	"crat/internal/emu/ptxgen"
	"crat/internal/gpusim"
	"crat/internal/harness"
	"crat/internal/ptx"
	"crat/internal/regalloc"
	"crat/internal/server"
	"crat/internal/workloads"
)

func TestPickTailNeedsTenSamplesBeyond(t *testing.T) {
	for _, tc := range []struct {
		n, limit, want int
		ok             bool
	}{
		{1000, 99, 99, true}, // 990th sample, 10 beyond
		{999, 99, 95, true},  // p99 would leave 9
		{200, 95, 95, true},  // 190th sample, 10 beyond
		{199, 95, 90, true},  // p95 would leave 9
		{44, 99, 75, true},   // the paper_suite case: 33rd of 44, 11 beyond
		{39, 99, 75, false},  // nothing admissible
		{100000, 95, 95, true},
		{100000, 75, 75, true},
	} {
		got, ok := pickTail(tc.n, tc.limit)
		if got != tc.want || ok != tc.ok {
			t.Errorf("pickTail(%d, %d) = p%d, %t; want p%d, %t", tc.n, tc.limit, got, ok, tc.want, tc.ok)
		}
	}
	s := make([]float64, 44)
	for i := range s {
		s[i] = float64(i + 1)
	}
	if got := percentile(s, 75); got != 33 {
		t.Errorf("p75 of 1..44 = %v, want the 33rd sample", got)
	}
	if got := percentile(s, 50); got != 22 {
		t.Errorf("p50 of 1..44 = %v, want the 22nd sample", got)
	}
}

func TestSelfTimeSubtractsCoveredChildTime(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "core.optimize", Start: 0, End: 100},
		// Nested: the grandchild is the child's business, not the root's.
		{ID: 2, Parent: 1, Name: "spillopt.knapsack", Start: 10, End: 40},
		{ID: 3, Parent: 2, Name: "regalloc.color", Start: 15, End: 25},
		// Overlapping siblings (a parallel sweep): covered once.
		{ID: 4, Parent: 1, Name: "gpusim.run", Start: 50, End: 80},
		{ID: 5, Parent: 1, Name: "gpusim.run", Start: 60, End: 90},
		// A child that outlives its parent is clipped to it.
		{ID: 6, Parent: 1, Name: "gpusim.run", Start: 95, End: 120},
	}
	self := selfTimes(spans)
	want := map[int64]time.Duration{
		1: 100 - (30 + 40 + 5), // [10,40) + [50,90) + [95,100)
		2: 30 - 10,
		3: 10, 4: 30, 5: 30, 6: 25,
	}
	if !reflect.DeepEqual(self, want) {
		t.Errorf("selfTimes = %v, want %v", self, want)
	}
}

func TestCutPutsEachOpInTheSliceItEndedIn(t *testing.T) {
	const msec = time.Millisecond
	p := phase{
		ticks: []tick{{}, {at: 500 * msec, cpu: 400 * msec}, {at: 1100 * msec, cpu: 1000 * msec}},
		// Two ops in the first slice (one ending exactly on its tick), three
		// in the second, one after the last tick.
		endAt: []time.Duration{900 * msec, 100 * msec, 500 * msec, 501 * msec, 1100 * msec, 1200 * msec},
		latMS: []float64{9, 1, 5, 6, 11, 12},
	}
	got := p.cut()
	if len(got) != 2 {
		t.Fatalf("%d slices, want 2", len(got))
	}
	if !reflect.DeepEqual(got[0].latMS, []float64{1, 5}) || !reflect.DeepEqual(got[1].latMS, []float64{6, 9, 11}) {
		t.Errorf("slice latencies %v and %v, want [1 5] and [6 9 11]", got[0].latMS, got[1].latMS)
	}
	if got[0].opsPerSec != 4 || got[1].opsPerSec != 5 {
		t.Errorf("ops/s %v and %v, want 4 and 5", got[0].opsPerSec, got[1].opsPerSec)
	}
	if got[0].cpuMSPerOp != 200 || got[1].cpuMSPerOp != 200 {
		t.Errorf("CPU ms/op %v and %v, want 200 and 200", got[0].cpuMSPerOp, got[1].cpuMSPerOp)
	}
}

// corrupt makes an emitted kernel compute something else: the value of
// its first global store is off by one.
func corrupt(t *testing.T, text string) string {
	t.Helper()
	re := regexp.MustCompile(`(?m)^(\s*)st\.global\.u32 (\[[^\]]+\]), (%r\d+);`)
	if !re.MatchString(text) {
		t.Fatalf("no global store to corrupt in:\n%s", text)
	}
	done := false
	return re.ReplaceAllStringFunc(text, func(line string) string {
		if done {
			return line
		}
		done = true
		m := re.FindStringSubmatch(line)
		return m[1] + "add.u32 " + m[3] + ", " + m[3] + ", 1;\n" + line
	})
}

func TestWrongOutputAndMismatchedDigestCountAsFailures(t *testing.T) {
	k := ptxgen.Generate(ptxgen.Config{Seed: 7, Block: genBlock})
	alloc, err := regalloc.Allocate(k, regalloc.Options{Regs: 16})
	if err != nil {
		t.Fatal(err)
	}
	r := genRequest(1, 7)
	good := sampled{req: r, cr: &server.CompileResponse{Kernel: k.Name, PTX: ptx.Print(alloc.Kernel)}}
	bad := sampled{req: r, cr: &server.CompileResponse{Kernel: k.Name, PTX: corrupt(t, good.cr.PTX)}}

	chk := newChecker()
	checkSampled([]sampled{good}, chk)
	if n := chk.failures(); n != 0 {
		t.Fatalf("a correct kernel failed the output check %d times", n)
	}
	checkSampled([]sampled{bad}, chk)
	if n := chk.failures(); n != 1 {
		t.Fatalf("a wrong kernel counted %d failures, want 1", n)
	}

	if !chk.served(1, decisionDigest(good.cr)) || !chk.served(1, decisionDigest(good.cr)) {
		t.Fatal("the same decision served twice was called a mismatch")
	}
	if chk.served(1, decisionDigest(bad.cr)) {
		t.Fatal("a second decision for one key went unnoticed")
	}
	if n := chk.failures(); n != 2 {
		t.Fatalf("failures = %d after one wrong output and one mismatched digest, want 2", n)
	}
}

// testConfig is a -quick run writing under the test's temporary directory.
func testConfig(t *testing.T, workload string, trace bool) *config {
	return &config{workload: workload, seed: 5, seconds: 0.2, trace: trace, quick: true,
		clients: defaultClients(), out: filepath.Join(t.TempDir(), "out")}
}

func TestStagedReplayAgreesWithOpaqueOp(t *testing.T) {
	tr := newTracer()
	st := &stager{tr: tr}
	defer st.hook()()
	arch := gpusim.FermiConfig()
	costs, err := gpusim.MeasureCosts(arch)
	if err != nil {
		t.Fatal(err)
	}

	s, err := harness.NewSession(arch)
	if err != nil {
		t.Fatal(err)
	}
	s.SetWorkers(2)
	for _, abbr := range []string{"BFS", "GAU", "LBM"} {
		p, _ := workloads.ByAbbr(abbr)
		base, _, err := s.Mode(p, core.ModeOptTLP)
		if err != nil {
			t.Fatal(err)
		}
		crat, d, err := s.Mode(p, core.ModeCRAT)
		if err != nil {
			t.Fatal(err)
		}
		want := paperOutcome{outcome: decisionOutcome(d), OptTLP: d.Analysis.OptTLP,
			BaseCycles: base.Cycles, Cycles: crat.Cycles, WarpInsts: crat.WarpInsts}
		var c counts
		got, err := st.paperChain(p.App(), arch, costs, 2, &c)
		if err != nil {
			t.Fatalf("%s: %v", abbr, err)
		}
		if got != want {
			t.Errorf("%s: staged replay %+v, opaque op %+v", abbr, got, want)
		}
	}

	cfg := testConfig(t, "svc_cold", true)
	chk := newChecker()
	nw := newFabric()
	stg, err := newSvcStaging(cfg, tr, nw, nw.client(1), chk)
	if err != nil {
		t.Fatal(err)
	}
	nd, err := startNode(cratdConfig(cfg, ""), nw)
	if err != nil {
		t.Fatal(err)
	}
	defer nd.shutdown()
	for i, seed := range []int64{11, 12, 13} {
		r := genRequest(i, seed)
		cr := svcOp(stg.client, nd.url, r, chk)
		if cr == nil {
			t.Fatalf("seed %d: the service failed the request", seed)
		}
		got, err := st.compileChain(r, stg.costs, stg.store, &stg.c)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if want := responseOutcome(cr); got != want {
			t.Errorf("seed %d: staged replay %+v, service %+v", seed, got, want)
		}
	}
	if n := chk.failures(); n != 0 {
		t.Errorf("%d ops failed", n)
	}
}

// TestQuickRunsEveryWorkload is the rot guard: every workload, traced and
// untraced, end to end at about 1/50 size.
func TestQuickRunsEveryWorkload(t *testing.T) {
	for _, w := range workloadTable {
		for _, trace := range []bool{false, true} {
			rep, err := run(testConfig(t, w.name, trace))
			if err != nil {
				t.Fatalf("%s trace=%t: %v", w.name, trace, err)
			}
			if !rep.Correct || rep.Failed != 0 || rep.Attempted < 1 {
				t.Errorf("%s trace=%t: correct=%t failed=%d attempted=%d", w.name, trace, rep.Correct, rep.Failed, rep.Attempted)
			}
			want := len(perLayer)
			if !trace {
				want = 6
			}
			if len(rep.Metrics) != want {
				t.Errorf("%s trace=%t: %d metrics, want %d", w.name, trace, len(rep.Metrics), want)
			}
		}
	}
}

// TestBenchmarkJSONNamesWhatTheDriverPrints keeps BENCHMARK.json and the
// program's own tables from drifting apart.
func TestBenchmarkJSONNamesWhatTheDriverPrints(t *testing.T) {
	doc, err := readBenchmarkDoc(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var got, want []string
	for _, w := range doc.Workloads {
		got = append(got, w.Name)
	}
	for _, w := range workloadTable {
		want = append(want, w.name)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("workloads: BENCHMARK.json %v, program %v", got, want)
	}

	got, want = nil, nil
	for _, m := range doc.PerLayer {
		got = append(got, m.Name+" "+m.Unit+" "+m.Better)
	}
	for _, m := range perLayer {
		want = append(want, m.name+" "+m.unit+" "+m.better)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("per_layer: BENCHMARK.json and the perLayer table differ:\n%v\n%v", got, want)
	}

	res := &result{phase: phase{latMS: []float64{1}, ops: 1, cpuOps: 1, window: time.Second, inWin: 1}, setups: []float64{1}, tailLimit: 95}
	e2e, _, err := endToEnd(res)
	if err != nil {
		t.Fatal(err)
	}
	got, want = nil, nil
	for _, m := range doc.EndToEnd {
		got = append(got, m.Name)
	}
	for name := range e2e {
		want = append(want, name)
	}
	sort.Strings(got)
	sort.Strings(want)
	if !reflect.DeepEqual(got, want) {
		t.Errorf("end_to_end: BENCHMARK.json %v, program %v", got, want)
	}
}
