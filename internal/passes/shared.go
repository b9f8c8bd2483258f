package passes

import "crat/internal/ptx"

// KernelAnalyses is the read-side bundle internal/vec lowers a kernel with:
// per-pc register use/def summaries and the per-pc branch targets and
// reconvergence pcs.
type KernelAnalyses struct {
	UseDef
	Reconvergence
}

// Shared builds k's KernelAnalyses through a fresh AnalysisManager. It
// memoizes nothing: the executors reach it once per kernel version through
// internal/vec's per-kernel cache. It does not validate the kernel; a
// malformed CFG surfaces as cfg.Build's error, unwrapped.
func Shared(k *ptx.Kernel) (*KernelAnalyses, error) {
	am := NewAnalysisManager(k)
	rc, err := am.Reconvergence()
	if err != nil {
		return nil, err
	}
	return &KernelAnalyses{UseDef: *am.UseDef(), Reconvergence: *rc}, nil
}
