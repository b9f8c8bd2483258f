// Backend smoke: run every registered optimization backend over every
// seed workload with the PTX verifier enabled after every pass and the
// differential oracle gating the chosen kernel (all workloads under
// `make race`, which `make ci` runs; two under -short). A backend that
// emits malformed IR fails with the offending pass named; a backend that
// miscompiles fails the zero-divergence assertion instead of silently
// degrading.
package crat_test

import (
	"testing"

	"crat/internal/backend"
	"crat/internal/core"
	"crat/internal/gpusim"
	"crat/internal/workloads"
)

// TestBackendSmoke compiles every seed workload once per registered
// backend, and once with the full backend union competing under one TPSC
// selection. OptTLP and the access costs are pinned so no simulations
// run; the oracle uses each app's real Setup inputs. In -short mode only
// the first workload of each sensitivity class runs.
func TestBackendSmoke(t *testing.T) {
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
	names := backend.Names()
	for _, p := range profiles {
		p := p
		t.Run(p.Abbr, func(t *testing.T) {
			t.Parallel()
			app := p.App()
			opts := core.Options{
				Arch:              arch,
				OptTLP:            4,
				Costs:             gpusim.Costs{Local: 40, Shared: 4},
				VerifyEachPass:    true,
				VerifyEquivalence: true,
			}
			for _, name := range names {
				o := opts
				o.Backends = []string{name}
				d, err := core.OptimizeCtx(t.Context(), app, o)
				if err != nil {
					t.Fatalf("Optimize(backend=%s): %v", name, err)
				}
				if d.Degraded {
					t.Fatalf("backend %s diverged from the oracle: %v", name, d.Divergence)
				}
				if d.Backend != name {
					t.Fatalf("backend %s: decision attributes the win to %q", name, d.Backend)
				}
				if d.Chosen.Kernel() == nil {
					t.Fatalf("backend %s: no chosen kernel", name)
				}
			}
			// The union: every backend's candidates competing under one
			// selection must still be oracle-clean and attribute the win
			// to an enabled backend.
			o := opts
			o.Backends = names
			d, err := core.OptimizeCtx(t.Context(), app, o)
			if err != nil {
				t.Fatalf("Optimize(union): %v", err)
			}
			if d.Degraded {
				t.Fatalf("union winner %s diverged from the oracle: %v", d.Backend, d.Divergence)
			}
			won := false
			for _, name := range names {
				if d.Backend == name {
					won = true
				}
			}
			if !won {
				t.Fatalf("union decision came from unknown backend %q", d.Backend)
			}
		})
	}
}
