package vec

import "crat/internal/ptx"

// CountBuilds makes every Program build (one validation and, for a valid
// kernel, one lowering) add one to *n, until the returned func restores
// the real build.
func CountBuilds(n *int) (restore func()) {
	orig := build
	build = func(k *ptx.Kernel) (*Program, error) {
		*n++
		return orig(k)
	}
	return func() { build = orig }
}

// Held returns the number of kernel versions the per-kernel cache holds.
func Held() int { return kernelMemo.Len() }

// LowersGeneric reports whether the ALU-class instruction in lowers to the
// per-lane sem.ALU fallback rather than to a hand-written kernel.
func LowersGeneric(in *ptx.Inst) bool {
	switch in.Op {
	case ptx.OpSetp, ptx.OpSelp, ptx.OpCvt:
		return false
	}
	return specialized(in.Op, in.Type) == nil
}
