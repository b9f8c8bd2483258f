package core

import (
	"sync"
	"testing"

	"crat/internal/ptx"
	"crat/internal/regalloc"
)

// RecordProbes makes probe answer the feasibility probes of Analyze and
// FeasibleFloor until tb ends, and records them. The returned func lists
// the budgets probed so far, in order.
func RecordProbes(tb testing.TB, probe func(*ptx.Kernel, regalloc.Options) (*regalloc.Result, error)) func() []int {
	var mu sync.Mutex
	var budgets []int
	orig := allocate
	allocate = func(k *ptx.Kernel, o regalloc.Options) (*regalloc.Result, error) {
		mu.Lock()
		budgets = append(budgets, o.Regs)
		mu.Unlock()
		return probe(k, o)
	}
	tb.Cleanup(func() { allocate = orig })
	return func() []int {
		mu.Lock()
		defer mu.Unlock()
		return append([]int(nil), budgets...)
	}
}
