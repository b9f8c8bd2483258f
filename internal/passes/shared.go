package passes

import (
	"context"
	"runtime"
	"weak"

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

// KernelMemo memoizes one value per kernel version — a kernel's identity
// plus its instruction count, so a kernel grown in place (builder reuse)
// is a new key instead of a stale hit. The key holds the kernel weakly and
// the leader registers a cleanup on the kernel, so an entry lives exactly
// as long as its kernel: long sweeps allocate thousands of short-lived
// candidate kernels, and none of them is pinned by its analyses. A value
// must therefore not point back at its kernel, or the entry never dies.
type KernelMemo[V any] struct {
	m *pool.Memo[kernelKey, V]
}

type kernelKey struct {
	k weak.Pointer[ptx.Kernel]
	n int
}

// NewKernelMemo returns an empty per-kernel memo.
func NewKernelMemo[V any]() *KernelMemo[V] {
	return &KernelMemo[V]{m: pool.NewMemo[kernelKey, V]()}
}

// Do returns k's value, computing it with build on first use. Concurrent
// callers for one kernel share a single build.
func (km *KernelMemo[V]) Do(k *ptx.Kernel, build func(*ptx.Kernel) (V, error)) (V, error) {
	key := kernelKey{weak.Make(k), len(k.Insts)}
	v, _, err := km.m.Do(context.Background(), key, func() (V, error) {
		runtime.AddCleanup(k, km.m.Forget, key)
		return build(k)
	})
	return v, err
}

// Len returns the number of kernel versions held.
func (km *KernelMemo[V]) Len() int { return km.m.Len() }

// shared is the registry behind Shared.
var shared = NewKernelMemo[*KernelAnalyses]()

// Shared returns the memoized KernelAnalyses for k, computing them on
// first use. The kernel must not be mutated after its first lookup; callers
// that edit instructions get a fresh entry because Clone yields a new
// pointer, and a kernel whose instruction count changed since analysis is
// re-analyzed rather than served stale. Shared does not validate the
// kernel — executors keep their own Validate calls (and error wrapping) in
// front of it; a malformed CFG surfaces as cfg.Build's error, unwrapped.
func Shared(k *ptx.Kernel) (*KernelAnalyses, error) {
	return shared.Do(k, buildShared)
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
