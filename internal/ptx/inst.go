package ptx

import "fmt"

// Reg is a virtual (or, after allocation, physical) register index within a
// kernel. Register types are recorded in Kernel.RegTypes.
type Reg int32

// NoReg marks an absent register operand (e.g. an unpredicated instruction's
// guard).
const NoReg Reg = -1

// Opcode is a PTX instruction opcode.
type Opcode uint8

// Opcodes. Arithmetic integer multiplies are the ".lo" form; Mad is
// "mad.lo" for integers and fused multiply-add for floats.
const (
	OpNop Opcode = iota
	OpAdd
	OpSub
	OpMul
	OpMad
	OpDiv
	OpRem
	OpMin
	OpMax
	OpAbs
	OpNeg
	OpAnd
	OpOr
	OpXor
	OpNot
	OpShl
	OpShr
	OpMov
	OpCvt
	OpSetp
	OpSelp
	OpLd
	OpSt
	OpBra
	OpBar
	OpRet
	OpExit
	OpRcp
	OpSqrt
	OpRsqrt
	OpSin
	OpCos
	OpLg2
	OpEx2
)

var opcodeNames = map[Opcode]string{
	OpNop: "nop", OpAdd: "add", OpSub: "sub", OpMul: "mul", OpMad: "mad",
	OpDiv: "div", OpRem: "rem", OpMin: "min", OpMax: "max", OpAbs: "abs",
	OpNeg: "neg", OpAnd: "and", OpOr: "or", OpXor: "xor", OpNot: "not",
	OpShl: "shl", OpShr: "shr", OpMov: "mov", OpCvt: "cvt", OpSetp: "setp",
	OpSelp: "selp", OpLd: "ld", OpSt: "st", OpBra: "bra", OpBar: "bar.sync",
	OpRet: "ret", OpExit: "exit", OpRcp: "rcp", OpSqrt: "sqrt",
	OpRsqrt: "rsqrt", OpSin: "sin", OpCos: "cos", OpLg2: "lg2", OpEx2: "ex2",
}

// String returns the PTX mnemonic of the opcode.
func (o Opcode) String() string {
	if n, ok := opcodeNames[o]; ok {
		return n
	}
	return fmt.Sprintf("op(%d)", uint8(o))
}

var opcodeByName = byName(opcodeNames)

// OpcodeFromName parses a PTX mnemonic (the leading token before type
// suffixes, e.g. "add" or "bar.sync").
func OpcodeFromName(name string) (Opcode, bool) {
	o, ok := opcodeByName[name]
	return o, ok
}

// IsSFU reports whether the opcode executes on the special function unit
// (transcendentals and reciprocals), which the simulator models with a
// longer latency.
func (o Opcode) IsSFU() bool {
	switch o {
	case OpRcp, OpSqrt, OpRsqrt, OpSin, OpCos, OpLg2, OpEx2, OpDiv, OpRem:
		return true
	}
	return false
}

// IsMemory reports whether the opcode accesses a memory state space.
func (o Opcode) IsMemory() bool { return o == OpLd || o == OpSt }

// CmpOp is a setp comparison operator.
type CmpOp uint8

// Comparison operators.
const (
	CmpNone CmpOp = iota
	CmpEq
	CmpNe
	CmpLt
	CmpLe
	CmpGt
	CmpGe
)

var cmpNames = map[CmpOp]string{
	CmpEq: "eq", CmpNe: "ne", CmpLt: "lt", CmpLe: "le", CmpGt: "gt", CmpGe: "ge",
}

// String returns the PTX spelling of the comparison.
func (c CmpOp) String() string {
	if n, ok := cmpNames[c]; ok {
		return n
	}
	return "cmp?"
}

var cmpByName = byName(cmpNames)

// CmpFromName parses a setp comparison suffix such as "lt".
func CmpFromName(name string) (CmpOp, bool) {
	c, ok := cmpByName[name]
	return c, ok
}

// OperandKind discriminates Operand variants.
type OperandKind uint8

// Operand kinds.
const (
	OperandNone    OperandKind = iota
	OperandReg                 // a virtual register
	OperandImm                 // integer immediate
	OperandFImm                // floating-point immediate
	OperandSpecial             // special register (%tid.x, ...)
	OperandMem                 // memory reference [base+off] or [sym+off]
	OperandSym                 // address-of a declared array or param symbol
)

// Operand is a single instruction operand.
type Operand struct {
	Kind OperandKind
	Reg  Reg     // OperandReg, or OperandMem register base
	Imm  int64   // OperandImm value
	FImm float64 // OperandFImm value
	Spec Special // OperandSpecial
	Sym  string  // OperandSym, or OperandMem symbol base
	Off  int64   // OperandMem displacement
}

// R constructs a register operand.
func R(r Reg) Operand { return Operand{Kind: OperandReg, Reg: r} }

// Imm constructs an integer immediate operand.
func Imm(v int64) Operand { return Operand{Kind: OperandImm, Imm: v} }

// FImm constructs a floating-point immediate operand.
func FImm(v float64) Operand { return Operand{Kind: OperandFImm, FImm: v} }

// Spec constructs a special-register operand.
func Spec(s Special) Operand { return Operand{Kind: OperandSpecial, Spec: s} }

// MemReg constructs a memory operand [reg+off].
func MemReg(base Reg, off int64) Operand {
	return Operand{Kind: OperandMem, Reg: base, Off: off}
}

// MemSym constructs a memory operand [sym+off].
func MemSym(sym string, off int64) Operand {
	return Operand{Kind: OperandMem, Reg: NoReg, Sym: sym, Off: off}
}

// Sym constructs an address-of-symbol operand (mov %rd, SpillStack).
func Sym(name string) Operand { return Operand{Kind: OperandSym, Sym: name} }

// InstMeta tags instructions inserted by the register allocator and the
// spilling optimization, so overhead can be counted robustly after
// rewrites (the Num_local / Num_shm / Num_others terms of the paper's TPSC
// model).
type InstMeta uint8

// Instruction metadata tags.
const (
	MetaNone       InstMeta = iota
	MetaSpillLoad           // reload of a spilled variable
	MetaSpillStore          // store of a spilled variable
	MetaSpillAddr           // spill address computation
)

// Inst is a single PTX instruction. An instruction may carry a label (a
// branch target naming the instruction's position) and a guard predicate.
//
// Operand conventions:
//   - arithmetic/logic/mov/cvt/selp: Dst is the destination register,
//     Srcs are the sources.
//   - setp: Dst is the predicate destination, Srcs are the two comparands.
//   - ld: Dst is the destination register, Srcs[0] is the memory operand.
//   - st: Dst is the memory operand, Srcs[0] is the stored value.
//   - bra: Target holds the destination label.
//   - bar.sync/ret/exit: no operands.
type Inst struct {
	Label    string // optional label attached to this instruction
	Guard    Reg    // guard predicate register, or NoReg
	GuardNeg bool   // guard is @!%p rather than @%p
	Op       Opcode
	Type     Type  // instruction type (.u32 etc); TypeNone for bra/bar/exit
	CvtFrom  Type  // cvt source type
	Cmp      CmpOp // setp comparison
	Space    Space // ld/st state space
	Dst      Operand
	Srcs     []Operand
	Target   string   // bra destination label
	Meta     InstMeta // provenance tag for spill-overhead accounting
	// Bypass marks a global load that skips the L1 (PTX ld.global.cg),
	// the hook for coordinating CRAT with cache-bypassing techniques
	// (paper §8: "CRAT can be used together with cache bypassing").
	Bypass bool
}

// Uses appends to dst the registers read by the instruction (guard,
// source registers, and memory base registers, including the store-address
// base in Dst) and returns the extended slice.
func (in *Inst) Uses(dst []Reg) []Reg {
	if in.Guard != NoReg {
		dst = append(dst, in.Guard)
	}
	for _, s := range in.Srcs {
		switch s.Kind {
		case OperandReg:
			dst = append(dst, s.Reg)
		case OperandMem:
			if s.Reg != NoReg {
				dst = append(dst, s.Reg)
			}
		}
	}
	if in.Dst.Kind == OperandMem && in.Dst.Reg != NoReg {
		dst = append(dst, in.Dst.Reg)
	}
	return dst
}

// Defs appends to dst the registers written by the instruction and returns
// the extended slice.
func (in *Inst) Defs(dst []Reg) []Reg {
	if in.Dst.Kind == OperandReg {
		dst = append(dst, in.Dst.Reg)
	}
	return dst
}

// Clone returns a deep copy of the instruction.
func (in *Inst) Clone() Inst {
	out := *in
	out.Srcs = append([]Operand(nil), in.Srcs...)
	return out
}
