package passes

import "crat/internal/ptx"

// KernelAnalyses is the read-side bundle the executors (gpusim, emu)
// consume: per-pc register use/def summaries and the micro-op stream.
type KernelAnalyses struct {
	Uses [][]ptx.Reg // per-pc registers read (guard, sources, memory bases)
	Defs []ptx.Reg   // per-pc register written (ptx.NoReg = none)
	// Micro is the pre-decoded micro-op stream both executors run from:
	// operand kinds resolved, immediates pre-encoded, symbols pre-folded.
	Micro *MicroStream
}

// Shared builds k's KernelAnalyses through a fresh AnalysisManager. It
// memoizes nothing: the executors reach it once per kernel version through
// internal/vec's per-kernel cache. It does not validate the kernel; a
// malformed CFG surfaces as cfg.Build's error, unwrapped.
func Shared(k *ptx.Kernel) (*KernelAnalyses, error) {
	am := NewAnalysisManager(k)
	micro, err := am.MicroOps()
	if err != nil {
		return nil, err
	}
	ud := am.UseDef()
	return &KernelAnalyses{Uses: ud.Uses, Defs: ud.Defs, Micro: micro}, nil
}
