// Package vec is the functional SIMT core both execution engines run: the
// cycle-level simulator (internal/gpusim) and the functional emulator
// (internal/emu). It lowers a kernel's shared micro-op stream
// (internal/passes) into a Program — one Op per pc with its vector kernel
// and broadcast constant planes pre-built — memoized once per kernel
// version, and executes that Program on warps (simt.go): register planes
// and local frames, the reconvergence stack, guard masks, special
// registers, the param block and ld.param, and per-lane loads and stores
// with their bounds rules. The engines keep what is really theirs: the
// simulator its timing, scheduling and statistics, the emulator its
// block-serial run loop and livelock budget, and each its barriers and its
// own fault type. The rules live here once rather than in each engine: a
// bug in copied code sits in both copies, so the sim↔emu cross-check never
// saw it, and the second copy bought no independent check.
package vec

import (
	"crat/internal/passes"
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
	Ops []Op
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

// programs memoizes the lowered Program per kernel version; an entry dies
// with its kernel.
var programs = passes.NewKernelMemo[*Program]()

// ProgramFor returns k's lowered Program, lowering the shared micro-op
// stream (passes.Shared) on first use. Concurrent callers — a simulation
// and an oracle run of one kernel — share one Program. Like passes.Shared
// it does not validate: each engine validates k first, with its own error
// wrapping.
func ProgramFor(k *ptx.Kernel) (*Program, error) {
	return programs.Do(k, func(k *ptx.Kernel) (*Program, error) {
		an, err := passes.Shared(k)
		if err != nil {
			return nil, err
		}
		return lower(an.Micro), nil
	})
}
