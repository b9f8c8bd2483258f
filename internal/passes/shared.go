package passes

import (
	"context"

	"crat/internal/pool"
	"crat/internal/ptx"
)

// KernelAnalyses is the read-side bundle the executors (gpusim, emu)
// consume: per-pc branch targets, reconvergence points, and register
// use/def summaries. It is built once per kernel identity through an
// AnalysisManager and shared across concurrent simulations.
type KernelAnalyses struct {
	Targets []int       // per-pc branch target instruction index (-1 = not a bra)
	Reconv  []int       // per-pc reconvergence pc for conditional branches (-1 = none)
	Uses    [][]ptx.Reg // per-pc registers read (guard, sources, memory bases)
	Defs    []ptx.Reg   // per-pc register written (ptx.NoReg = none)
	// Micro is the pre-decoded micro-op stream both executors run from:
	// operand kinds resolved, immediates pre-encoded, symbols pre-folded.
	Micro *MicroStream
}

// sharedKey identifies one kernel version: its identity plus its
// instruction count, so a kernel grown in place (builder reuse) is a new
// key instead of a stale hit.
type sharedKey struct {
	k *ptx.Kernel
	n int
}

// shared is the registry. 1024 bounds it: past that the map is dropped
// wholesale (long sweeps allocate thousands of short-lived kernels, and
// rebuilding a handful of live ones is cheaper than retaining them all).
var shared = pool.NewMemo[sharedKey, *KernelAnalyses](1024)

// Shared returns the memoized KernelAnalyses for k, computing them on
// first use. The kernel must not be mutated after its first lookup; callers
// that edit instructions get a fresh entry because Clone yields a new
// pointer, and a kernel whose instruction count changed since analysis is
// re-analyzed rather than served stale. Shared does not validate the
// kernel — executors keep their own Validate calls (and error wrapping) in
// front of it; a malformed CFG surfaces as cfg.Build's error, unwrapped.
func Shared(k *ptx.Kernel) (*KernelAnalyses, error) {
	an, _, err := shared.Do(context.Background(), sharedKey{k, len(k.Insts)},
		func() (*KernelAnalyses, error) { return buildShared(k) })
	return an, err
}

func buildShared(k *ptx.Kernel) (*KernelAnalyses, error) {
	am := NewAnalysisManager(k)
	rc, err := am.Reconvergence()
	if err != nil {
		return nil, err
	}
	ud := am.UseDef()
	micro, err := am.MicroOps()
	if err != nil {
		return nil, err
	}
	return &KernelAnalyses{
		Targets: rc.Targets,
		Reconv:  rc.Reconv,
		Uses:    ud.Uses,
		Defs:    ud.Defs,
		Micro:   micro,
	}, nil
}
