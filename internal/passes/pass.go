package passes

import "crat/internal/ptx"

// Pass is one stage of a kernel transformation pipeline. A pass declares
// the analyses it consumes (the Manager materializes them before Run) and
// the analyses its transform invalidates (the Manager drops them after a
// successful Run; a pass that rebinds the kernel with Replace or calls
// InvalidateAll itself may declare none).
type Pass interface {
	// Name identifies the pass in instrumentation, verification failures,
	// and -dump-after selectors.
	Name() string
	// Requires lists the analyses Run consumes.
	Requires() []Kind
	// Invalidates lists the analyses the transform destroys.
	Invalidates() []Kind
	// Run transforms k (in place, or via am.Replace for a rewrite). The
	// kernel argument always equals am.Kernel().
	Run(k *ptx.Kernel, am *AnalysisManager) error
}

// Fn adapts a function to the Pass interface for simple passes.
type Fn struct {
	PassName string
	Needs    []Kind
	Clobbers []Kind
	Body     func(k *ptx.Kernel, am *AnalysisManager) error
}

// Name implements Pass.
func (f Fn) Name() string { return f.PassName }

// Requires implements Pass.
func (f Fn) Requires() []Kind { return f.Needs }

// Invalidates implements Pass.
func (f Fn) Invalidates() []Kind { return f.Clobbers }

// Run implements Pass.
func (f Fn) Run(k *ptx.Kernel, am *AnalysisManager) error { return f.Body(k, am) }

// wrapped decorates a pass with an extra function that runs after the
// inner pass succeeds; everything else delegates to the inner pass.
type wrapped struct {
	Pass
	after func(k *ptx.Kernel, am *AnalysisManager) error
}

func (w wrapped) Run(k *ptx.Kernel, am *AnalysisManager) error {
	if err := w.Pass.Run(k, am); err != nil {
		return err
	}
	return w.after(am.Kernel(), am)
}

// Unwrap exposes the inner pass so hooks can type-assert on concrete pass
// types through layers of wrapping.
func (w wrapped) Unwrap() Pass { return w.Pass }

// After returns p extended with fn, which runs after p succeeds and sees
// the post-transform kernel. It is the building block for test hooks and
// per-pass observers installed through SetGlobalWrap.
func After(p Pass, fn func(k *ptx.Kernel, am *AnalysisManager) error) Pass {
	return wrapped{Pass: p, after: fn}
}

// Inner peels wrapping layers off p until it reaches a pass that does not
// implement Unwrap, returning that innermost pass.
func Inner(p Pass) Pass {
	for {
		u, ok := p.(interface{ Unwrap() Pass })
		if !ok {
			return p
		}
		p = u.Unwrap()
	}
}
