// Package core implements the CRAT compiler framework (Xie et al., MICRO
// 2015): coordinated register allocation and thread-level parallelism
// optimization for GPUs.
//
// The pipeline follows paper Figure 9:
//
//  1. Resource usage analysis collects MaxReg/MinReg, BlockSize, ShmSize
//     and MaxTLP (Table 1). OptTLP is an input to the pipeline
//     (Options.OptTLP, 0 = MaxTLP), found offline by the caller: by
//     profiling (ProfileOptTLPNCtx) or by static code analysis
//     (MeasureStaticInputs + EstimateOptTLP, Figure 10).
//  2. Design space pruning keeps only the rightmost register point of each
//     TLP "stair" and discards points whose TLP exceeds OptTLP (§4.2).
//  3. Each candidate (reg, TLP) is register-allocated (Chaitin-Briggs) with
//     the spilling optimization applied (Algorithm 1).
//  4. The TPSC metric ranks the candidates; the smallest wins (§6).
package core

import (
	"fmt"

	"crat/internal/cfg"
	"crat/internal/gpusim"
	"crat/internal/ptx"
	"crat/internal/regalloc"
)

// App couples a kernel with its launch shape: everything CRAT needs to
// analyze and simulate one application.
type App struct {
	Name   string
	Kernel *ptx.Kernel // virtual-register kernel (pre-allocation)
	Grid   int
	Block  int
	// DefaultReg is the register per-thread the stock compiler chose (the
	// baseline MaxTLP/OptTLP configurations use it). Zero means MaxReg
	// capped at the ISA's per-thread limit, mirroring the common compiler
	// cap. A nonzero budget is taken as given up to MaxReg: a stock
	// compiler never assigns more registers than the kernel needs.
	DefaultReg int
	// Setup prepares global memory and returns the kernel parameter
	// values. It is invoked once per simulation.
	Setup func(mem *gpusim.Memory) []uint64
}

// Analysis is the collected resource usage of paper Table 1.
type Analysis struct {
	MaxReg int // registers to hold all variables (dataflow analysis)
	MinReg int // NumRegister / MaxThreads (architecture floor)
	// RegFloor is max(FeasibleFloor, MinReg, 4): the lowest budget the
	// pruned design space reaches. It is not the allocator's exact floor;
	// call FeasibleFloor for that.
	RegFloor   int
	DefaultReg int
	BlockSize  int
	ShmSize    int64 // shared memory per block requested by the kernel
	MaxTLP     int   // occupancy at DefaultReg
	OptTLP     int   // 0 from Analyze; a Decision carries the resolved Options.OptTLP
	Segments   []Segment
}

// Analyze collects the static resource-usage parameters of the app on the
// given architecture (paper §4.1). OptTLP is left zero; obtain it with
// ProfileOptTLPNCtx or EstimateOptTLP.
func Analyze(app App, arch gpusim.Config) (*Analysis, error) {
	if app.Kernel == nil || app.Block <= 0 {
		return nil, fmt.Errorf("core: app %q incomplete", app.Name)
	}
	maxReg, err := regalloc.MaxReg(app.Kernel)
	if err != nil {
		return nil, fmt.Errorf("core: MaxReg(%s): %w", app.Name, err)
	}
	a := &Analysis{
		MaxReg:    maxReg,
		MinReg:    arch.MinReg(),
		BlockSize: app.Block,
		ShmSize:   app.Kernel.SharedBytes(),
	}
	a.RegFloor = regFloor(app.Kernel, a.MinReg, a.MaxReg)
	a.DefaultReg = min(app.DefaultReg, maxReg)
	if app.DefaultReg == 0 {
		_, a.DefaultReg = a.RegRange(arch) // MaxReg under the ISA cap
	}
	a.MaxTLP = arch.Occupancy(a.DefaultReg, a.ShmSize, app.Block)
	if a.MaxTLP == 0 {
		return nil, fmt.Errorf("core: %s does not fit on the SM at its default configuration", app.Name)
	}
	seg, err := Segments(app.Kernel)
	if err != nil {
		return nil, err
	}
	a.Segments = seg
	return a, nil
}

// allocate is the feasibility probe behind RegFloor and FeasibleFloor. It
// is a variable only so that tests can count the probes.
var allocate = regalloc.Allocate

func feasible(k *ptx.Kernel, budget int) bool {
	_, err := allocate(k, regalloc.Options{Regs: budget})
	return err == nil
}

// regFloor returns max(FeasibleFloor(k, maxReg), minReg, 4) without
// searching for the exact floor when the clamp decides: no probe when
// maxReg is already at or below the clamp, one probe at the clamp
// otherwise, and a bisection above it only if that probe fails.
func regFloor(k *ptx.Kernel, minReg, maxReg int) int {
	lo := max(minReg, 4)
	if maxReg <= lo || feasible(k, lo) {
		return lo
	}
	return bisectFloor(k, lo, maxReg)
}

// FeasibleFloor finds the smallest register budget the allocator can honor
// (spill machinery included) by bisection over [4, maxReg]. The compile
// path needs only Analysis.RegFloor; this exact value is for callers that
// study the allocator below the architecture floor.
func FeasibleFloor(k *ptx.Kernel, maxReg int) int {
	if feasible(k, 4) {
		return 4
	}
	return bisectFloor(k, 4, maxReg)
}

// bisectFloor returns the smallest feasible budget in (lo, hi], given lo
// infeasible and hi feasible.
func bisectFloor(k *ptx.Kernel, lo, hi int) int {
	// Invariant: lo infeasible, hi feasible.
	for hi-lo > 1 {
		mid := (lo + hi) / 2
		if feasible(k, mid) {
			hi = mid
		} else {
			lo = mid
		}
	}
	return hi
}

// TLPAt returns the occupancy at a given register per-thread for this
// analysis (shared memory and block size fixed).
func (a *Analysis) TLPAt(arch gpusim.Config, reg int) int {
	return arch.Occupancy(reg, a.ShmSize, a.BlockSize)
}

// RegRange returns the register budgets [lo, hi] the design space spans:
// from RegFloor up to MaxReg, capped by the ISA's per-thread limit (0 means
// uncapped). When the cap sits below RegFloor the range is the single
// budget hi.
func (a *Analysis) RegRange(arch gpusim.Config) (lo, hi int) {
	lo, hi = a.RegFloor, a.MaxReg
	if cap := arch.MaxRegPerThread; cap > 0 && hi > cap {
		// The ISA caps per-thread registers; demand beyond it must spill.
		hi = cap
	}
	return min(lo, hi), hi
}

// Staircase returns, for every TLP value t in [1, occupancy(lowest useful
// reg)], the largest register per-thread realizable at that TLP — the
// rightmost point of each stair in paper Figure 11. Because the throttler
// can always run *fewer* blocks than occupancy allows, stairs below
// occupancy(MaxReg) sit at MaxReg. The keys are exactly 1..len(result).
func (a *Analysis) Staircase(arch gpusim.Config) map[int]int {
	out := make(map[int]int)
	lo, hi := a.RegRange(arch)
	maxT := a.TLPAt(arch, lo)
	for t := 1; t <= maxT; t++ {
		// Largest reg in [lo, hi] whose occupancy still reaches t.
		best := -1
		for reg := lo; reg <= hi; reg++ {
			if a.TLPAt(arch, reg) >= t {
				best = reg
			}
		}
		if best > 0 {
			out[t] = best
		}
	}
	return out
}

// SegKind distinguishes computation from memory segments (paper Fig 10a).
type SegKind uint8

// Segment kinds.
const (
	SegCompute SegKind = iota
	SegMemory
)

// Segment is a maximal run of instructions of one kind with its summed
// latency weight, used by the static OptTLP estimator.
type Segment struct {
	Kind    SegKind
	Insts   int
	Latency float64 // summed per-instruction issue latencies, loop-weighted
}

// Segments divides the kernel into computation and memory segments (paper
// §4.1): instructions are walked in static order with loop bodies weighted
// by 10^depth, and every global/local memory instruction opens a memory
// segment.
func Segments(k *ptx.Kernel) ([]Segment, error) {
	g, err := cfg.Build(k)
	if err != nil {
		return nil, err
	}
	depth := g.InstLoopDepth()
	var segs []Segment
	add := func(kind SegKind, lat float64) {
		if n := len(segs); n > 0 && segs[n-1].Kind == kind {
			segs[n-1].Insts++
			segs[n-1].Latency += lat
			return
		}
		segs = append(segs, Segment{Kind: kind, Insts: 1, Latency: lat})
	}
	for i := range k.Insts {
		in := &k.Insts[i]
		w := 1.0
		for d := 0; d < depth[i]; d++ {
			w *= 10
		}
		switch {
		case in.Op.IsMemory() && (in.Space == ptx.SpaceGlobal || in.Space == ptx.SpaceLocal):
			add(SegMemory, w)
		case in.Op == ptx.OpBar:
			// Barriers end a segment but carry no latency of their own.
			add(SegCompute, w)
		default:
			add(SegCompute, w)
		}
	}
	return segs, nil
}
