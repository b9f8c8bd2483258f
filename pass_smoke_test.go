// Pass-pipeline smoke: run the full CRAT pipeline with the PTX verifier
// enabled after every pass on every seed workload (all of them under
// `make race`, which `make ci` runs; two under -short). A pass that emits
// malformed IR fails here with the offending pass named, long before the
// golden experiment outputs could drift.
package crat_test

import (
	"testing"

	"crat/internal/core"
	"crat/internal/gpusim"
	"crat/internal/workloads"
)

// TestPassSmoke compiles every seed workload under CRAT (shared-memory
// spilling on) and CRAT-local with verify-after-every-pass. OptTLP and the
// access costs are pinned so no simulations run: the smoke isolates the
// compilation pipeline. In -short mode only the first workload of each
// sensitivity class runs.
func TestPassSmoke(t *testing.T) {
	arch := gpusim.FermiConfig()
	profiles := workloads.All()
	if testing.Short() {
		var sensitive, insensitive bool
		short := profiles[:0]
		for _, p := range profiles {
			if (p.Sensitive && !sensitive) || (!p.Sensitive && !insensitive) {
				short = append(short, p)
			}
			if p.Sensitive {
				sensitive = true
			} else {
				insensitive = true
			}
		}
		profiles = short
	}
	for _, p := range profiles {
		p := p
		t.Run(p.Abbr, func(t *testing.T) {
			t.Parallel()
			app := p.App()
			for _, spillShared := range []bool{true, false} {
				d, err := core.OptimizeCtx(t.Context(), app, core.Options{
					Arch:           arch,
					OptTLP:         4,
					Costs:          gpusim.Costs{Local: 40, Shared: 4},
					SpillShared:    spillShared,
					VerifyEachPass: true,
				})
				if err != nil {
					t.Fatalf("Optimize(spillShared=%v): %v", spillShared, err)
				}
				if d.Chosen.Kernel() == nil {
					t.Fatalf("Optimize(spillShared=%v): no chosen kernel", spillShared)
				}
			}
		})
	}
}
