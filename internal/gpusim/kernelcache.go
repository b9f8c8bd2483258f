package gpusim

import (
	"fmt"

	"crat/internal/passes"
	"crat/internal/ptx"
)

// kernelInfo is the per-kernel static analysis the simulator needs on every
// launch: validation, the per-instruction use/def sets consulted by the
// scoreboard each cycle, and the lowered exec program the SoA engine runs.
// Computing it once per kernel (instead of once per NewSimulator) removes
// the dominant setup cost of design-space sweeps, where the same kernel is
// simulated at many TLPs.
type kernelInfo struct {
	uses [][]ptx.Reg // per-pc registers read (guard, sources, memory bases)
	defs []ptx.Reg   // per-pc register written (ptx.NoReg = none)
	prog *execProgram
}

// execProgram is the simulator's lowered form of the shared micro-op stream:
// one execOp per pc with the vector evaluation function and broadcast
// constant planes pre-built, so the issue loop does no per-instruction
// decoding at all.
type execProgram struct {
	ops []execOp
}

// srcRef kinds (a compressed passes.SrcKind: absent sources are folded into
// srcConst via the shared zero plane).
type srcKind uint8

const (
	srcConst srcKind = iota // bcast plane (immediate, symbol, or zero)
	srcReg                  // register plane
	srcSpec                 // special register, materialized per issue
)

// srcRef is one pre-resolved source slot of an execOp.
type srcRef struct {
	kind  srcKind
	reg   ptx.Reg
	spec  ptx.Special
	bcast *[32]uint64 // srcConst: the value broadcast across all lanes
}

// execOp is one lowered instruction. Hot fields (class, fn, the register
// indices) sit first; the branch/fault fields trail.
type execOp struct {
	class    passes.MicroClass
	guard    ptx.Reg // guard predicate register, or ptx.NoReg
	guardNeg bool
	load     bool // memory op is a load (ld); false = store
	bypass   bool
	sfu      bool
	size     uint8 // memory access width in bytes
	space    ptx.Space
	meta     ptx.InstMeta
	dst      ptx.Reg // destination register, or ptx.NoReg
	membase  ptx.Reg // address base register, or ptx.NoReg
	fn       vecFn   // MicroALU only
	src      [3]srcRef
	memoff   uint64
	target   int // branch target pc (MicroBra)
	rpc      int // reconvergence pc (-1 = none)
	err      error
}

// buildExecProgram lowers the shared micro-op stream into the simulator's
// runnable form. Broadcast planes for all constants live in one arena,
// counted first so the pointers stay valid.
func buildExecProgram(ms *passes.MicroStream) *execProgram {
	nConst := 0
	for i := range ms.Ops {
		for j := range ms.Ops[i].Src {
			if ms.Ops[i].Src[j].Kind == passes.SrcConst {
				nConst++
			}
		}
	}
	bcArena := make([][32]uint64, nConst)
	ci := 0
	prog := &execProgram{ops: make([]execOp, len(ms.Ops))}
	for i := range ms.Ops {
		u := &ms.Ops[i]
		e := &prog.ops[i]
		e.class = u.Class
		e.guard, e.guardNeg = u.Guard, u.GuardNeg
		e.load = u.Op == ptx.OpLd
		e.bypass = u.Bypass
		e.sfu = u.SFU
		e.size = u.Size
		e.space = u.Space
		e.meta = u.Meta
		e.dst = u.Dst
		e.membase = u.MemBase
		e.memoff = u.MemOff
		e.target, e.rpc = u.Target, u.Rpc
		e.err = u.Err
		for j := range u.Src {
			switch u.Src[j].Kind {
			case passes.SrcReg:
				e.src[j] = srcRef{kind: srcReg, reg: u.Src[j].Reg}
			case passes.SrcSpecial:
				e.src[j] = srcRef{kind: srcSpec, spec: u.Src[j].Spec}
			case passes.SrcConst:
				p := &bcArena[ci]
				ci++
				for l := range p {
					p[l] = u.Src[j].Const
				}
				e.src[j] = srcRef{kind: srcConst, bcast: p}
			default:
				e.src[j] = srcRef{kind: srcConst, bcast: &zeroPlane}
			}
		}
		if u.Class == passes.MicroALU {
			e.fn = vecFnFor(u)
		}
	}
	return prog
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
// everything else (use/def, the micro-op stream) from the shared analysis
// registry (internal/passes) the emulator also uses, then the lowering of
// the micro-op stream into the SoA engine's exec program.
func buildKernelInfo(k *ptx.Kernel) (*kernelInfo, error) {
	if err := k.Validate(); err != nil {
		return nil, fmt.Errorf("gpusim: %w", err)
	}
	an, err := passes.Shared(k)
	if err != nil {
		return nil, err
	}
	return &kernelInfo{uses: an.Uses, defs: an.Defs, prog: buildExecProgram(an.Micro)}, nil
}
