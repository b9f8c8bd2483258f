package ptx

// Builder provides a fluent API for constructing kernels programmatically.
// The synthetic workload generators use it to emit PTX without going
// through text. A pending label or guard set via Label/If applies to the
// next emitted instruction only.
type Builder struct {
	k            *Kernel
	pendingLabel string
	pendingGuard Reg
	pendingNeg   bool
}

// NewBuilder returns a builder for a fresh kernel with the given name.
func NewBuilder(name string) *Builder {
	return &Builder{k: NewKernel(name), pendingGuard: NoReg}
}

// Kernel returns the kernel built so far.
func (b *Builder) Kernel() *Kernel { return b.k }

// Param declares a kernel parameter.
func (b *Builder) Param(name string, t Type) *Builder {
	b.k.AddParam(name, t)
	return b
}

// SharedArray declares a shared-memory array of size bytes.
func (b *Builder) SharedArray(name string, size int64) *Builder {
	b.k.AddArray(ArrayDecl{Name: name, Space: SpaceShared, Align: 4, Size: size})
	return b
}

// LocalArray declares a per-thread local-memory array of size bytes.
func (b *Builder) LocalArray(name string, size int64) *Builder {
	b.k.AddArray(ArrayDecl{Name: name, Space: SpaceLocal, Align: 4, Size: size})
	return b
}

// Reg allocates a fresh virtual register of type t.
func (b *Builder) Reg(t Type) Reg { return b.k.NewReg(t) }

// Regs allocates n fresh virtual registers of type t.
func (b *Builder) Regs(t Type, n int) []Reg {
	out := make([]Reg, n)
	for i := range out {
		out[i] = b.k.NewReg(t)
	}
	return out
}

// Label attaches a label to the next emitted instruction.
func (b *Builder) Label(name string) *Builder {
	b.pendingLabel = name
	return b
}

// If guards the next emitted instruction with @p (or @!p when neg is true).
func (b *Builder) If(p Reg, neg bool) *Builder {
	b.pendingGuard = p
	b.pendingNeg = neg
	return b
}

// Emit appends an instruction, applying any pending label/guard. Callers
// constructing Inst values directly must set Guard to NoReg themselves when
// the instruction is unpredicated (all Builder helpers do).
func (b *Builder) Emit(in Inst) *Builder {
	if b.pendingLabel != "" {
		in.Label = b.pendingLabel
		b.pendingLabel = ""
	}
	if b.pendingGuard != NoReg {
		in.Guard = b.pendingGuard
		in.GuardNeg = b.pendingNeg
		b.pendingGuard = NoReg
		b.pendingNeg = false
	}
	b.k.Append(in)
	return b
}

func (b *Builder) emit3(op Opcode, t Type, d Reg, a, c Operand) *Builder {
	return b.Emit(Inst{Op: op, Type: t, Dst: R(d), Srcs: []Operand{a, c}, Guard: NoReg})
}

// Mov emits mov.t d, src.
func (b *Builder) Mov(t Type, d Reg, src Operand) *Builder {
	return b.Emit(Inst{Op: OpMov, Type: t, Dst: R(d), Srcs: []Operand{src}, Guard: NoReg})
}

// MovSpec emits mov.u32 d, %special.
func (b *Builder) MovSpec(d Reg, s Special) *Builder {
	return b.Mov(U32, d, Spec(s))
}

// Add emits add.t d, a, c.
func (b *Builder) Add(t Type, d Reg, a, c Operand) *Builder { return b.emit3(OpAdd, t, d, a, c) }

// Sub emits sub.t d, a, c.
func (b *Builder) Sub(t Type, d Reg, a, c Operand) *Builder { return b.emit3(OpSub, t, d, a, c) }

// Mul emits mul(.lo).t d, a, c.
func (b *Builder) Mul(t Type, d Reg, a, c Operand) *Builder { return b.emit3(OpMul, t, d, a, c) }

// Min emits min.t d, a, c.
func (b *Builder) Min(t Type, d Reg, a, c Operand) *Builder { return b.emit3(OpMin, t, d, a, c) }

// Max emits max.t d, a, c.
func (b *Builder) Max(t Type, d Reg, a, c Operand) *Builder { return b.emit3(OpMax, t, d, a, c) }

// And emits and.t d, a, c.
func (b *Builder) And(t Type, d Reg, a, c Operand) *Builder { return b.emit3(OpAnd, t, d, a, c) }

// Xor emits xor.t d, a, c.
func (b *Builder) Xor(t Type, d Reg, a, c Operand) *Builder { return b.emit3(OpXor, t, d, a, c) }

// Shl emits shl.t d, a, c.
func (b *Builder) Shl(t Type, d Reg, a, c Operand) *Builder { return b.emit3(OpShl, t, d, a, c) }

// Mad emits mad(.lo).t d, a, c, e  (d = a*c + e).
func (b *Builder) Mad(t Type, d Reg, a, c, e Operand) *Builder {
	return b.Emit(Inst{Op: OpMad, Type: t, Dst: R(d), Srcs: []Operand{a, c, e}, Guard: NoReg})
}

// Sfu emits a special-function-unit op such as sqrt/rcp/sin.
func (b *Builder) Sfu(op Opcode, t Type, d Reg, a Operand) *Builder {
	return b.Emit(Inst{Op: op, Type: t, Dst: R(d), Srcs: []Operand{a}, Guard: NoReg})
}

// Cvt emits cvt.to.from d, a.
func (b *Builder) Cvt(to, from Type, d Reg, a Operand) *Builder {
	return b.Emit(Inst{Op: OpCvt, Type: to, CvtFrom: from, Dst: R(d), Srcs: []Operand{a}, Guard: NoReg})
}

// Setp emits setp.cmp.t p, a, c.
func (b *Builder) Setp(cmp CmpOp, t Type, p Reg, a, c Operand) *Builder {
	return b.Emit(Inst{Op: OpSetp, Cmp: cmp, Type: t, Dst: R(p), Srcs: []Operand{a, c}, Guard: NoReg})
}

// Selp emits selp.t d, a, c, p.
func (b *Builder) Selp(t Type, d Reg, a, c Operand, p Reg) *Builder {
	return b.Emit(Inst{Op: OpSelp, Type: t, Dst: R(d), Srcs: []Operand{a, c, R(p)}, Guard: NoReg})
}

// Ld emits ld.space.t d, [addr].
func (b *Builder) Ld(space Space, t Type, d Reg, addr Operand) *Builder {
	return b.Emit(Inst{Op: OpLd, Space: space, Type: t, Dst: R(d), Srcs: []Operand{addr}, Guard: NoReg})
}

// St emits st.space.t [addr], v.
func (b *Builder) St(space Space, t Type, addr, v Operand) *Builder {
	return b.Emit(Inst{Op: OpSt, Space: space, Type: t, Dst: addr, Srcs: []Operand{v}, Guard: NoReg})
}

// LdParam emits ld.param.t d, [name].
func (b *Builder) LdParam(t Type, d Reg, name string) *Builder {
	return b.Ld(SpaceParam, t, d, MemSym(name, 0))
}

// Bra emits an unconditional branch to target.
func (b *Builder) Bra(target string) *Builder {
	return b.Emit(Inst{Op: OpBra, Target: target, Guard: NoReg})
}

// BraIf emits @p bra target (or @!p when neg).
func (b *Builder) BraIf(p Reg, neg bool, target string) *Builder {
	return b.Emit(Inst{Op: OpBra, Target: target, Guard: p, GuardNeg: neg})
}

// Bar emits bar.sync 0.
func (b *Builder) Bar() *Builder { return b.Emit(Inst{Op: OpBar, Guard: NoReg}) }

// Exit emits exit.
func (b *Builder) Exit() *Builder { return b.Emit(Inst{Op: OpExit, Guard: NoReg}) }

// GlobalIndex emits the canonical thread-index computation of paper
// Listing 1/2 — tid = ctaid.x*ntid.x + tid.x — and returns a U32 register
// holding it.
func (b *Builder) GlobalIndex() Reg {
	tid := b.Reg(U32)
	ctaid := b.Reg(U32)
	ntid := b.Reg(U32)
	res := b.Reg(U32)
	b.MovSpec(tid, SpecTidX)
	b.MovSpec(ctaid, SpecCtaIdX)
	b.MovSpec(ntid, SpecNTidX)
	b.Mad(U32, res, R(ctaid), R(ntid), R(tid))
	return res
}

// AddrOf emits code computing a 64-bit global address base+idx*scale and
// returns the U64 register holding it.
func (b *Builder) AddrOf(base Reg, idx Reg, scale int64) Reg {
	wide := b.Reg(U64)
	addr := b.Reg(U64)
	b.Cvt(U64, U32, wide, R(idx))
	if scale != 1 {
		scaled := b.Reg(U64)
		b.Mul(U64, scaled, R(wide), Imm(scale))
		wide = scaled
	}
	b.Add(U64, addr, R(base), R(wide))
	return addr
}
