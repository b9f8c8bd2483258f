// Command bench (cratbench) is the repository's one repeatable benchmark:
// four named workloads that each stress different layers of the CRAT
// stack, six end-to-end metrics a user of the system would see, and — in
// a separate traced run — per-layer numbers taken from spans the
// benchmark records around every call it makes into a layer's public
// functions. Nothing under cmd/ or internal/ knows it is being measured.
//
//	go run ./bench -workload svc_cold -seed 1 -seconds 15
//	go run ./bench -workload svc_cold -seed 1 -seconds 15 -trace 1
//	go run ./bench -selfcheck
//
// One workload runs per process. The last line of standard output is one
// JSON object {correct, attempted, failed, metrics}; everything before it
// is for people. See README.md in this directory and BENCHMARK.json.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"crat/internal/buildinfo"
)

// config is one run's settings.
type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	quick    bool
	clients  int
	out      string // output directory (traces, temporary cache directories)
}

func (c *config) tmpDir() string { return filepath.Join(c.out, "tmp") }

// window is the length of the measured phase. The traced run spends half
// of its time there and the rest on staged replays.
func (c *config) window() time.Duration {
	s := c.seconds
	if c.trace {
		s /= 2
	}
	return time.Duration(s * float64(time.Second))
}

// setupReps is how often set-up is repeated so that setup_s is a median.
func (c *config) setupReps() int {
	if c.quick || c.trace {
		return 1
	}
	return 3
}

// defaultClients is the closed-loop client count: every caller of this
// system waits for its reply, so load is closed-loop, and more clients
// than cores would only measure the scheduler.
func defaultClients() int { return min(runtime.NumCPU(), 4) }

// result is what a workload hands back for reporting.
type result struct {
	phase     phase
	setups    []float64 // seconds, one per set-up repetition
	tailLimit int       // highest tail percentile this workload may report
	sliced    bool      // short, alike ops: report medians over the phase's slices
	checked   int       // outputs compared against the emulator
	failed    int
	layers    map[string]float64 // per-layer metrics (traced run only)
	extra     map[string]float64 // workload-specific numbers for people
}

// repeatSetup runs setup setupReps times, tearing down all but the last,
// and records how long each took.
func repeatSetup[E any](cfg *config, res *result, setup func() (E, error), teardown func(E) error) (E, error) {
	var env E
	for i, n := 0, cfg.setupReps(); i < n; i++ {
		start := time.Now()
		e, err := setup()
		if err != nil {
			return env, fmt.Errorf("set-up: %w", err)
		}
		res.setups = append(res.setups, time.Since(start).Seconds())
		if i < n-1 {
			if err := teardown(e); err != nil {
				return env, fmt.Errorf("tearing down set-up %d: %w", i+1, err)
			}
			runtime.GC()
			continue
		}
		env = e
	}
	return env, nil
}

type workload struct {
	name string
	run  func(*config, *tracer) (*result, error)
}

var workloadTable = []workload{
	{"paper_suite", runPaperSuite},
	{"svc_cold", runSvcCold},
	{"svc_warm", runSvcWarm},
	{"gw_mixed", runGwMixed},
}

func lookupWorkload(name string) (workload, bool) {
	for _, w := range workloadTable {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the last line of standard output.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// endToEnd derives the end-to-end metrics from a measured phase.
func endToEnd(res *result) (map[string]metric, string, error) {
	lat := sortedCopy(res.phase.latMS)
	if len(lat) == 0 {
		return nil, "", fmt.Errorf("no op completed")
	}
	tail, ok := pickTail(res.phase.ops, res.tailLimit)
	note := fmt.Sprintf("op_tail_ms is p%d of %d samples", tail, res.phase.ops)
	if len(lat) != res.phase.ops {
		note += fmt.Sprintf(" (%d distinct ops, each at the median of its repeats)", len(lat))
	}
	if !ok {
		note += fmt.Sprintf(" (fewer than %d beyond it: not admissible as a tail)", minBeyond)
	}
	rss, err := peakRSSMB()
	if err != nil {
		return nil, "", err
	}
	m := map[string]metric{
		"setup_s":       {median(res.setups), "s"},
		"ops_per_s":     {res.phase.opsPerSec(), "1/s"},
		"op_p50_ms":     {median(lat), "ms"},
		"op_tail_ms":    {percentile(lat, tail), "ms"},
		"cpu_ms_per_op": {ms(res.phase.cpu) / float64(res.phase.cpuOps), "ms"},
		"peak_rss_mb":   {rss, "MB"},
	}
	if sl := res.phase.cut(); res.sliced && len(sl) >= minSlices {
		fewest := len(sl[0].latMS)
		for _, s := range sl {
			fewest = min(fewest, len(s.latMS))
		}
		tail, ok = pickTail(fewest, res.tailLimit)
		over := func(f func(timeSlice) float64) float64 {
			v := make([]float64, len(sl))
			for i, s := range sl {
				v[i] = f(s)
			}
			return median(v)
		}
		m["ops_per_s"] = metric{over(func(s timeSlice) float64 { return s.opsPerSec }), "1/s"}
		m["op_p50_ms"] = metric{over(func(s timeSlice) float64 { return median(s.latMS) }), "ms"}
		m["op_tail_ms"] = metric{over(func(s timeSlice) float64 { return percentile(s.latMS, tail) }), "ms"}
		m["cpu_ms_per_op"] = metric{over(func(s timeSlice) float64 { return s.cpuMSPerOp }), "ms"}
		note = fmt.Sprintf("ops_per_s, op_p50_ms, op_tail_ms (p%d) and cpu_ms_per_op are medians over %d slices of %v, at least %d of the %d samples in each",
			tail, len(sl), sliceDur, fewest, res.phase.ops)
		if !ok {
			note += fmt.Sprintf(" (fewer than %d beyond the tail: not admissible)", minBeyond)
		}
	}
	return m, note, nil
}

// minSlices is the fewest slices a median over slices is taken of; a
// shorter phase (-quick) reports its whole window.
const minSlices = 8

func run(cfg *config) (*report, error) {
	w, ok := lookupWorkload(cfg.workload)
	if !ok {
		return nil, fmt.Errorf("unknown workload %q", cfg.workload)
	}
	if err := os.RemoveAll(cfg.tmpDir()); err != nil {
		return nil, err
	}
	if err := os.MkdirAll(cfg.out, 0o755); err != nil {
		return nil, err
	}
	defer os.RemoveAll(cfg.tmpDir())

	var tr *tracer
	if cfg.trace {
		tr = newTracer()
	}
	res, err := w.run(cfg, tr)
	if err != nil {
		return nil, err
	}
	rep := &report{
		Attempted: max(res.phase.ops, 1),
		Failed:    res.failed,
		Correct:   res.failed == 0,
	}
	if cfg.trace {
		path := filepath.Join(cfg.out, cfg.workload+".trace.jsonl")
		spans := tr.snapshot()
		if err := writeJSONL(path, spans); err != nil {
			return nil, fmt.Errorf("writing the trace: %w", err)
		}
		fmt.Printf("trace: %d spans -> %s\n", len(spans), path)
		rep.Metrics = make(map[string]metric, len(perLayer))
		for _, m := range perLayer {
			rep.Metrics[m.name] = metric{res.layers[m.name], m.unit}
		}
	} else {
		m, note, err := endToEnd(res)
		if err != nil {
			return nil, err
		}
		rep.Metrics = m
		fmt.Println(note)
	}
	printHuman(cfg, res, rep)
	return rep, nil
}

func printHuman(cfg *config, res *result, rep *report) {
	fmt.Printf("workload %s seed %d seconds %g clients %d trace %t\n",
		cfg.workload, cfg.seed, cfg.seconds, cfg.clients, cfg.trace)
	fmt.Printf("build %s GOMAXPROCS %d nproc %d\n", buildinfo.String(), runtime.GOMAXPROCS(0), runtime.NumCPU())
	fmt.Printf("ops %d (in window %d, window %.2fs) outputs checked %d failed %d failed_frac %.6f\n",
		res.phase.ops, res.phase.inWin, res.phase.window.Seconds(), res.checked, res.failed,
		float64(rep.Failed)/float64(max(rep.Attempted, 1)))
	names := make([]string, 0, len(rep.Metrics))
	for name := range rep.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		fmt.Printf("  %-36s %14.6g %s\n", name, rep.Metrics[name].Value, rep.Metrics[name].Unit)
	}
	extras := make([]string, 0, len(res.extra))
	for name := range res.extra {
		extras = append(extras, name)
	}
	sort.Strings(extras)
	for _, name := range extras {
		fmt.Printf("  (%s = %.6g)\n", name, res.extra[name])
	}
}

func main() {
	cfg := &config{}
	var traceFlag int
	var selfcheck bool
	flag.StringVar(&cfg.workload, "workload", "", "one of paper_suite, svc_cold, svc_warm, gw_mixed")
	flag.Int64Var(&cfg.seed, "seed", 1, "seed of the ptxgen corpus, request order and key popularity")
	flag.Float64Var(&cfg.seconds, "seconds", 15, "length of the measured phase")
	flag.IntVar(&traceFlag, "trace", 0, "1 = traced run: per-layer metrics and bench/out/<workload>.trace.jsonl")
	flag.BoolVar(&cfg.quick, "quick", false, "each workload at about 1/50 size (the rot guard the tests use)")
	flag.BoolVar(&selfcheck, "selfcheck", false, "run every workload in two alternating sets and compare their medians against the bounds")
	flag.Parse()
	cfg.trace = traceFlag != 0
	cfg.clients = defaultClients()
	cfg.out = filepath.Join("bench", "out")

	if buildinfo.RaceEnabled {
		fmt.Fprintln(os.Stderr, "cratbench: refusing to run a -race build: its numbers are not comparable")
		os.Exit(2)
	}
	if selfcheck {
		os.Exit(runSelfcheck(cfg))
	}
	if cfg.seconds <= 0 {
		fmt.Fprintln(os.Stderr, "cratbench: -seconds must be positive")
		os.Exit(2)
	}
	rep, err := run(cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "cratbench: %v\n", err)
		os.Exit(1)
	}
	line, err := json.Marshal(rep)
	if err != nil {
		fmt.Fprintf(os.Stderr, "cratbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !rep.Correct {
		os.Exit(1)
	}
}
