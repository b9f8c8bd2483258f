package harness

import (
	"fmt"
	"time"

	"crat/internal/passes"
)

// PassTimingTable renders the process-wide per-pass aggregates the pass
// manager records on every pipeline execution: how often each pass ran,
// its cumulative wall time, and the net instruction-count change it
// produced (experiments -pass-times).
func PassTimingTable() *Table {
	t := &Table{
		ID:      "pass-times",
		Title:   "per-pass wall time and IR-size delta (process-wide)",
		Columns: []string{"pass", "runs", "wall", "insts-delta"},
	}
	for _, tm := range passes.Timings() {
		t.AddRow(tm.Pass,
			fmt.Sprintf("%d", tm.Runs),
			tm.Wall.Round(time.Microsecond).String(),
			fmt.Sprintf("%+d", tm.InstsDelta))
	}
	if len(t.Rows) == 0 {
		t.Notes = append(t.Notes, "no passes executed in this process")
	}
	return t
}
