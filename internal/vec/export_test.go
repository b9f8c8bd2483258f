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
