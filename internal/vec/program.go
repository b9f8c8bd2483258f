// Package vec is the functional SIMT core both execution engines run: the
// cycle-level simulator (internal/gpusim) and the functional emulator
// (internal/emu). Both reach a kernel through one per-kernel cache and one
// launch contract. ProgramFor validates a kernel once per kernel version,
// keeps the validation error or lowers each instruction into a Program —
// one Op per pc with its operand kinds resolved, immediates pre-encoded,
// symbols pre-folded, its vector kernel and broadcast constant planes
// pre-built, and the per-pc register reads and write the simulator's
// scoreboard checks — and NewMachine checks a launch (nil kernel,
// validation, param count, grid and block) before any engine state exists.
// The Program executes on warps (simt.go): register
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
	"errors"
	"runtime"
	"weak"

	"crat/internal/passes"
	"crat/internal/pool"
	"crat/internal/ptx"
	"crat/internal/sem"
)

// Class is an Op's dispatch class.
type Class uint8

// Op classes.
const (
	ClassNop     Class = iota
	ClassBra           // branch (Target/Rpc pre-resolved)
	ClassExit          // exit / ret
	ClassBar           // bar.sync
	ClassALU           // vectorizable compute (arith/logic/mov/cvt/setp/selp)
	ClassMem           // ld/st to global, local, or shared memory
	ClassLdParam       // ld.param (constant-bank read)
	ClassBad           // unsupported by sem: faults when executed
)

// SrcKind discriminates pre-resolved source slots. Absent sources are
// SrcConst reads of the shared zero plane.
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
	Class    Class
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
	Fn       Fn      // ClassALU only
	Src      [3]Src
	MemOff   uint64
	Target   int // branch target pc (ClassBra)
	Rpc      int // reconvergence pc (-1 = none)
	Err      error
}

// Program is a kernel lowered for execution, one Op per pc, so an issue
// loop does no per-instruction decoding at all.
type Program struct {
	Ops  []Op
	Uses [][]ptx.Reg // per-pc registers read (guard, sources, memory bases)
	Defs []ptx.Reg   // per-pc register written (ptx.NoReg = none)
}

// lowering carries one kernel's decode: the constant source slots wait in
// consts until every Op exists, then get their broadcast planes from one
// arena sized to fit.
type lowering struct {
	k      *ptx.Kernel
	consts []constSlot
}

type constSlot struct {
	src *Src
	v   uint64
}

// lower decodes every instruction of a kernel that passed ptx.Verify, so
// operand counts and kinds need no checking here. Branch targets and
// reconvergence pcs come from an.
func lower(k *ptx.Kernel, an *passes.KernelAnalyses) *Program {
	nSrcs := 0 // bounds the constant slots, so consts never regrows
	for i := range k.Insts {
		nSrcs += len(k.Insts[i].Srcs)
	}
	l := lowering{k: k, consts: make([]constSlot, 0, nSrcs)}
	prog := &Program{Ops: make([]Op, len(k.Insts)), Uses: an.Uses, Defs: an.Defs}
	for pc := range k.Insts {
		e := &prog.Ops[pc]
		l.inst(e, &k.Insts[pc])
		if e.Class == ClassBra {
			e.Target, e.Rpc = an.Targets[pc], an.Reconv[pc]
		}
	}
	arena := make([][32]uint64, len(l.consts))
	for i, c := range l.consts {
		p := &arena[i]
		for j := range p {
			p[j] = c.v
		}
		c.src.Bcast = p
	}
	return prog
}

// inst decodes one instruction into e.
func (l *lowering) inst(e *Op, in *ptx.Inst) {
	e.Guard, e.GuardNeg = in.Guard, in.GuardNeg
	e.Load = in.Op == ptx.OpLd
	e.Meta = in.Meta
	e.Dst = ptx.NoReg
	e.Rpc = -1
	if in.Dst.Kind == ptx.OperandReg {
		e.Dst = in.Dst.Reg
	}
	for j := range e.Src {
		e.Src[j] = Src{Kind: SrcConst, Bcast: &zeroPlane}
	}

	switch in.Op {
	case ptx.OpNop:
		e.Class = ClassNop
		return
	case ptx.OpBra:
		e.Class = ClassBra
		return
	case ptx.OpExit, ptx.OpRet:
		e.Class = ClassExit
		return
	case ptx.OpBar:
		e.Class = ClassBar
		return
	}

	if in.Op.IsMemory() {
		e.Class = ClassMem
		mem := in.Dst
		if e.Load {
			mem = in.Srcs[0]
			if in.Space == ptx.SpaceParam {
				e.Class = ClassLdParam
			}
		} else {
			// Store: Srcs[0] is the stored value.
			l.src(&e.Src[0], in.Srcs[0], in.Type)
		}
		e.Space = in.Space
		e.Size = uint8(in.Type.Bytes())
		e.MemBase, e.MemOff = l.memAddress(mem, in.Space)
		e.Bypass = in.Bypass
		return
	}

	// Vectorizable compute: pre-resolve each source at the type the
	// evaluator reads it (cvt reads its source at CvtFrom).
	e.Class = ClassALU
	e.SFU = in.Op.IsSFU()
	t, srcs := in.Type, in.Srcs
	switch in.Op {
	case ptx.OpCvt:
		t = in.CvtFrom
	case ptx.OpSelp:
		srcs = srcs[:2] // the predicate slot is set below
	}
	for i, o := range srcs {
		l.src(&e.Src[i], o, t)
	}
	switch in.Op {
	case ptx.OpSetp:
		_, e.Err = sem.Compare(in.Cmp, in.Type, 0, 0)
	case ptx.OpSelp:
		// The lane evaluators read the predicate straight from the
		// register file, so pin the slot to a register read regardless of
		// the operand's nominal kind.
		if in.Srcs[2].Kind != ptx.OperandReg {
			e.Err = errors.New("sem: selp predicate is not a register")
		} else {
			e.Src[2] = Src{Kind: SrcReg, Reg: in.Srcs[2].Reg}
		}
	case ptx.OpCvt:
		// sem.Convert is total over the type lattice: never faults.
	default:
		// sem's only evaluation errors are "unsupported" defaults that do
		// not depend on operand values, so probing with zeros is exact.
		_, e.Err = sem.ALU(in.Op, in.Type, 0, 0, 0)
	}
	if e.Err != nil {
		e.Class = ClassBad
		return
	}
	e.Fn = fnFor(in)
}

// src pre-resolves one source operand at its consumption type t.
func (l *lowering) src(s *Src, o ptx.Operand, t ptx.Type) {
	switch o.Kind {
	case ptx.OperandReg:
		*s = Src{Kind: SrcReg, Reg: o.Reg}
	case ptx.OperandImm, ptx.OperandFImm:
		l.consts = append(l.consts, constSlot{s, sem.ImmBits(o, t)})
	case ptx.OperandSpecial:
		*s = Src{Kind: SrcSpec, Spec: o.Spec}
	case ptx.OperandSym:
		// Address-of a shared/local array (space-relative), or a param.
		space := ptx.SpaceParam
		if a, ok := l.k.Array(o.Sym); ok {
			space = a.Space
		}
		l.consts = append(l.consts, constSlot{s, l.symConst(o.Sym, space)})
	}
}

// symConst resolves an array or parameter symbol to its kernel-static
// space-relative address: arrays resolve inside their declared space,
// anything else falls back to the param block.
func (l *lowering) symConst(sym string, space ptx.Space) uint64 {
	if space != ptx.SpaceParam {
		if off, ok := l.k.ArrayOffset(sym); ok {
			return uint64(off)
		}
	}
	off, _ := l.k.ParamOffset(sym)
	return uint64(off)
}

// memAddress pre-resolves a memory operand: a register base plus a
// displacement with any symbol base folded in.
func (l *lowering) memAddress(mem ptx.Operand, space ptx.Space) (ptx.Reg, uint64) {
	if mem.Reg != ptx.NoReg {
		return mem.Reg, uint64(mem.Off)
	}
	return ptx.NoReg, l.symConst(mem.Sym, space) + uint64(mem.Off)
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

// build validates k and lowers it; tests count calls through it.
var build = func(k *ptx.Kernel) (*Program, error) {
	if err := k.Validate(); err != nil {
		return nil, err
	}
	an, err := passes.Shared(k)
	if err != nil {
		return nil, err
	}
	return lower(k, an), nil
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
