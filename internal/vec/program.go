// Package vec is the functional SIMT core both execution engines run: the
// cycle-level simulator (internal/gpusim) and the functional emulator
// (internal/emu). Both reach a kernel through one per-kernel cache and one
// launch contract. ProgramFor validates a kernel once per kernel version,
// keeps the validation error or lowers the kernel's shared micro-op stream
// (internal/passes) into a Program — one Op per pc with its vector kernel
// and broadcast constant planes pre-built, and the per-pc register reads
// and write the simulator's scoreboard checks — and NewMachine checks a
// launch (nil kernel, validation, param count, grid and block) before any
// engine state exists. The Program executes on warps (simt.go): register
// planes and local frames, the reconvergence stack, guard masks, special
// registers, the param block and ld.param, and per-lane loads and stores
// with their bounds rules. The engines keep what is really theirs: the
// simulator its timing, scheduling and statistics, the emulator its
// block-serial run loop and livelock budget, and each its barriers, its
// own fault type and its error prefix. The rules live here once rather
// than in each engine: a bug in copied code sits in both copies, so the
// sim↔emu cross-check never saw it, and the second copy bought no
// independent check.
package vec

import (
	"context"
	"runtime"
	"weak"

	"crat/internal/passes"
	"crat/internal/pool"
	"crat/internal/ptx"
)

// SrcKind is a compressed passes.SrcKind: absent sources are folded into
// SrcConst via the shared zero plane.
type SrcKind uint8

// Source kinds.
const (
	SrcConst SrcKind = iota // Bcast plane (immediate, symbol, or zero)
	SrcReg                  // register plane
	SrcSpec                 // special register, materialized per issue
)

// Src is one pre-resolved source slot of an Op.
type Src struct {
	Kind  SrcKind
	Reg   ptx.Reg
	Spec  ptx.Special
	Bcast *[32]uint64 // SrcConst: the value broadcast across all lanes
}

// Op is one lowered instruction. Hot fields (Class, Fn, the register
// indices) sit first; the branch/fault fields trail.
type Op struct {
	Class    passes.MicroClass
	Guard    ptx.Reg // guard predicate register, or ptx.NoReg
	GuardNeg bool
	Load     bool // memory op is a load (ld); false = store
	Bypass   bool
	SFU      bool
	Size     uint8 // memory access width in bytes
	Space    ptx.Space
	Meta     ptx.InstMeta
	Dst      ptx.Reg // destination register, or ptx.NoReg
	MemBase  ptx.Reg // address base register, or ptx.NoReg
	Fn       Fn      // MicroALU only
	Src      [3]Src
	MemOff   uint64
	Target   int // branch target pc (MicroBra)
	Rpc      int // reconvergence pc (-1 = none)
	Err      error
}

// Program is the lowered form of a kernel's micro-op stream, indexed by
// pc, so an issue loop does no per-instruction decoding at all.
type Program struct {
	Ops  []Op
	Uses [][]ptx.Reg // per-pc registers read (guard, sources, memory bases)
	Defs []ptx.Reg   // per-pc register written (ptx.NoReg = none)
}

// lower lowers a micro-op stream. Broadcast planes for all constants live
// in one arena, counted first so the pointers stay valid.
func lower(ms *passes.MicroStream) *Program {
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
	prog := &Program{Ops: make([]Op, len(ms.Ops))}
	for i := range ms.Ops {
		u := &ms.Ops[i]
		e := &prog.Ops[i]
		e.Class = u.Class
		e.Guard, e.GuardNeg = u.Guard, u.GuardNeg
		e.Load = u.Op == ptx.OpLd
		e.Bypass = u.Bypass
		e.SFU = u.SFU
		e.Size = u.Size
		e.Space = u.Space
		e.Meta = u.Meta
		e.Dst = u.Dst
		e.MemBase = u.MemBase
		e.MemOff = u.MemOff
		e.Target, e.Rpc = u.Target, u.Rpc
		e.Err = u.Err
		for j := range u.Src {
			switch u.Src[j].Kind {
			case passes.SrcReg:
				e.Src[j] = Src{Kind: SrcReg, Reg: u.Src[j].Reg}
			case passes.SrcSpecial:
				e.Src[j] = Src{Kind: SrcSpec, Spec: u.Src[j].Spec}
			case passes.SrcConst:
				p := &bcArena[ci]
				ci++
				for l := range p {
					p[l] = u.Src[j].Const
				}
				e.Src[j] = Src{Kind: SrcConst, Bcast: p}
			default:
				e.Src[j] = Src{Kind: SrcConst, Bcast: &zeroPlane}
			}
		}
		if u.Class == passes.MicroALU {
			e.Fn = fnFor(u)
		}
	}
	return prog
}

// kernelKey is one kernel version: the kernel's identity plus its
// instruction count, so a kernel grown in place (a reused ptx.Builder) is
// a new key instead of a stale hit. The kernel is held weakly.
type kernelKey struct {
	k weak.Pointer[ptx.Kernel]
	n int
}

// kernelMemo is the one per-kernel cache: per kernel version, its Program
// or its validation error. The leader registers a cleanup on the kernel, so
// an entry lives exactly as long as its kernel: long sweeps allocate
// thousands of short-lived candidate kernels, and none of them is pinned by
// its Program. A Program must therefore not point back at its kernel.
var kernelMemo = pool.NewMemo[kernelKey, *Program]()

// build validates k and lowers its shared analyses; tests count calls
// through it.
var build = func(k *ptx.Kernel) (*Program, error) {
	if err := k.Validate(); err != nil {
		return nil, err
	}
	an, err := passes.Shared(k)
	if err != nil {
		return nil, err
	}
	prog := lower(an.Micro)
	prog.Uses, prog.Defs = an.Uses, an.Defs
	return prog, nil
}

// ProgramFor returns k's Program, validating and lowering k on first use of
// each kernel version; a kernel that fails validation fails every call with
// the same, unprefixed error. Concurrent callers — a simulation and an
// oracle run of one kernel — share one build. The kernel must not be
// mutated after its first lookup, except by growing it: callers that edit
// instructions work on a Clone, which is a new identity.
func ProgramFor(k *ptx.Kernel) (*Program, error) {
	key := kernelKey{weak.Make(k), len(k.Insts)}
	prog, _, err := kernelMemo.Do(context.Background(), key, func() (*Program, error) {
		runtime.AddCleanup(k, kernelMemo.Forget, key)
		return build(k)
	})
	return prog, err
}
