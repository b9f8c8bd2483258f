package core

import (
	"context"
	"fmt"

	"crat/internal/backend"
	"crat/internal/passes"
	"crat/internal/ptx"
)

// Request is one compile of PTX text, as cratc and cratd receive it.
type Request struct {
	PTX    string // the module source
	Kernel string // the kernel to optimize ("" = the module's only one)
	Block  int
	Grid   int // blocks per launch, for oracle executions
	// Options configure the pipeline; Compile supplies the Analysis. A
	// pinned budget (Pin.Reg > 0) is also the stock compiler's
	// App.DefaultReg, so the analysis's MaxTLP is the occupancy at it
	// (or at MaxReg, if lower).
	Options
}

// Compiled is a Compile's Decision plus the input module re-emitted with
// the chosen kernel swapped in: a drop-in replacement for the input.
type Compiled struct {
	*Decision
	PTX string
}

// InputError is a compile failure the request itself caused: PTX that does
// not parse, a kernel that is missing or fails verification, or one that
// cannot launch at its block size. cratd answers it with 422.
type InputError struct{ Err error }

func (e *InputError) Error() string { return e.Err.Error() }
func (e *InputError) Unwrap() error { return e.Err }

// Compile parses the module, selects, verifies and analyzes the kernel,
// and runs the OptimizeCtx pipeline on it.
func Compile(ctx context.Context, req Request) (*Compiled, error) {
	module, err := ptx.ParseModule(req.PTX)
	if err != nil {
		return nil, &InputError{fmt.Errorf("parsing ptx: %w", err)}
	}
	kernel, err := module.Select(req.Kernel)
	if err != nil {
		return nil, &InputError{err}
	}
	if err := ptx.Verify(kernel, "input"); err != nil {
		return nil, &InputError{err}
	}
	app := App{Name: kernel.Name, Kernel: kernel, Block: req.Block, Grid: req.Grid, DefaultReg: max(req.Pin.Reg, 0)}
	opts := req.Options
	// One manager serves the whole compile: the analysis, the prune and
	// selection passes and every backend read the kernel's analyses from
	// it, and the backends share its allocations.
	in := backend.NewInput(passes.NewAnalysisManager(kernel))
	if opts.Analysis, err = analyze(app, opts.Arch, in.Analyses()); err != nil {
		return nil, &InputError{err}
	}
	d, err := optimize(ctx, app, opts, in)
	if err != nil {
		return nil, err
	}
	for i, k := range module.Kernels {
		if k == kernel {
			module.Kernels[i] = d.Chosen.Kernel()
		}
	}
	return &Compiled{Decision: d, PTX: ptx.PrintModule(module)}, nil
}

// BackendList resolves a front end's backend choice into Options.Backends:
// the names as given, or ["crat"] when there are none.
func BackendList(names []string) []string {
	return Options{Backends: names, SpillShared: true}.backendNames()
}
