package main

import (
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"slices"
	"strings"
)

// benchmarkDoc is the part of BENCHMARK.json the self-check reads.
type benchmarkDoc struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func readBenchmarkDoc(path string) (*benchmarkDoc, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var doc benchmarkDoc
	if err := json.Unmarshal(raw, &doc); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &doc, nil
}

// selfcheckRuns is the number of runs behind each median.
const selfcheckRuns = 3

// childRun runs one workload in a fresh process of this same binary and
// returns its metrics.
func childRun(workload string, seed int64, seconds int) (map[string]float64, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(exe, "-workload", workload, "-seed", fmt.Sprint(seed), "-seconds", fmt.Sprint(seconds))
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("%s seed %d: %w", workload, seed, err)
	}
	lines := strings.Split(strings.TrimSpace(string(out)), "\n")
	var rep report
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &rep); err != nil {
		return nil, fmt.Errorf("%s seed %d: last line is not the report: %w", workload, seed, err)
	}
	if !rep.Correct {
		return nil, fmt.Errorf("%s seed %d: %d of %d ops failed", workload, seed, rep.Failed, rep.Attempted)
	}
	vals := make(map[string]float64, len(rep.Metrics))
	for name, m := range rep.Metrics {
		vals[name] = m.Value
	}
	return vals, nil
}

// runSelfcheck measures the same build twice — two sets of selfcheckRuns
// runs per workload, the second set in reverse workload order — and
// checks that the two medians of every (end-to-end metric, workload) pair
// agree within the metric's bound. A benchmark whose own repeats disagree
// by more than its bounds cannot accept or reject anything.
func runSelfcheck(cfg *config) int {
	doc, err := readBenchmarkDoc("BENCHMARK.json")
	if err != nil {
		fmt.Fprintf(os.Stderr, "cratbench: -selfcheck runs from the repository root: %v\n", err)
		return 2
	}
	type key struct {
		set      int
		workload string
	}
	vals := make(map[key]map[string][]float64)
	order := make([]string, len(doc.Workloads))
	for i, w := range doc.Workloads {
		order[i] = w.Name
	}
	backwards := slices.Clone(order)
	slices.Reverse(backwards)
	for set, names := range [][]string{order, backwards} {
		for _, w := range names {
			k := key{set, w}
			vals[k] = make(map[string][]float64)
			for r := 0; r < selfcheckRuns; r++ {
				seed := cfg.seed + int64(r)
				fmt.Printf("set %d %s seed %d\n", set+1, w, seed)
				m, err := childRun(w, seed, doc.RunSeconds)
				if err != nil {
					fmt.Fprintf(os.Stderr, "cratbench: %v\n", err)
					return 1
				}
				for name, v := range m {
					vals[k][name] = append(vals[k][name], v)
				}
			}
		}
	}
	bad := 0
	fmt.Printf("%-12s %-14s %14s %14s %8s %8s\n", "workload", "metric", "median set 1", "median set 2", "gap", "bound")
	for _, w := range order {
		for _, m := range doc.EndToEnd {
			a, b := median(vals[key{0, w}][m.Name]), median(vals[key{1, w}][m.Name])
			gap := ratio(b-a, a)
			if gap < 0 {
				gap = -gap
			}
			verdict := ""
			if gap > m.Bound {
				verdict = "  DISAGREE"
				bad++
			}
			fmt.Printf("%-12s %-14s %14.6g %14.6g %7.2f%% %7.2f%%%s\n", w, m.Name, a, b, 100*gap, 100*m.Bound, verdict)
		}
	}
	if bad > 0 {
		fmt.Printf("%d (metric, workload) pairs disagree beyond their bound\n", bad)
		return 1
	}
	return 0
}
