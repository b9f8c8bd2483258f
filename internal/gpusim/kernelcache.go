package gpusim

import (
	"fmt"

	"crat/internal/passes"
	"crat/internal/ptx"
	"crat/internal/vec"
)

// kernelInfo is the per-kernel static analysis the simulator needs on every
// launch: validation, the per-instruction use/def sets consulted by the
// scoreboard each cycle, and the lowered program the SoA engine runs (shared
// with the emulator through internal/vec). Computing it once per kernel
// (instead of once per NewSimulator) removes the dominant setup cost of
// design-space sweeps, where the same kernel is simulated at many TLPs.
type kernelInfo struct {
	uses [][]ptx.Reg // per-pc registers read (guard, sources, memory bases)
	defs []ptx.Reg   // per-pc register written (ptx.NoReg = none)
	prog *vec.Program
}

// kernelInfos memoizes kernelInfo per kernel version, so concurrent
// simulations of one kernel share a single analysis. An entry dies with its
// kernel.
var kernelInfos = passes.NewKernelMemo[*kernelInfo]()

// infoFor returns the cached analysis for k, computing it on first use. The
// kernel must not be mutated after its first simulation; callers that edit
// instructions (e.g. toggling Bypass on a clone) get a fresh entry because
// Clone yields a new pointer. A kernel whose instruction count changed since
// analysis is re-analyzed rather than served stale.
func infoFor(k *ptx.Kernel) (*kernelInfo, error) {
	return kernelInfos.Do(k, buildKernelInfo)
}

// buildKernelInfo runs the once-per-kernel analyses: validation here,
// use/def from the shared analysis registry (internal/passes), and the
// lowered program from internal/vec — both memoized per kernel and shared
// with the emulator.
func buildKernelInfo(k *ptx.Kernel) (*kernelInfo, error) {
	if err := k.Validate(); err != nil {
		return nil, fmt.Errorf("gpusim: %w", err)
	}
	an, err := passes.Shared(k)
	if err != nil {
		return nil, err
	}
	prog, err := vec.ProgramFor(k)
	if err != nil {
		return nil, err
	}
	return &kernelInfo{uses: an.Uses, defs: an.Defs, prog: prog}, nil
}
