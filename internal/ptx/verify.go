package ptx

import "fmt"

// VerifyError is a structured kernel-invariant violation. Pass names the
// pipeline stage whose output broke the kernel ("parse", "regalloc",
// "spillopt", ...), Inst is the offending instruction index (-1 for
// kernel-level problems such as duplicate labels), and Disasm is the
// formatted instruction for diagnostics.
type VerifyError struct {
	Kernel string
	Pass   string
	Inst   int
	Disasm string
	Msg    string
}

func (e *VerifyError) Error() string {
	pass := ""
	if e.Pass != "" {
		pass = " after " + e.Pass
	}
	if e.Inst < 0 {
		return fmt.Sprintf("ptx: verify%s: %s: %s", pass, e.Kernel, e.Msg)
	}
	return fmt.Sprintf("ptx: verify%s: %s: inst %d (%s): %s", pass, e.Kernel, e.Inst, e.Disasm, e.Msg)
}

// safeFormatInst formats an instruction for a diagnostic. The kernels being
// verified are by definition suspect, and the printer assumes a well-formed
// kernel (register indices in range, ...), so formatting failures must not
// mask the underlying violation.
func safeFormatInst(k *Kernel, i int) (disasm string) {
	if i < 0 || i >= len(k.Insts) {
		return ""
	}
	defer func() {
		if recover() != nil {
			disasm = "<unprintable instruction>"
		}
	}()
	return FormatInst(k, i)
}

// verifier carries the per-kernel context for one Verify run.
type verifier struct {
	k    *Kernel
	pass string
}

func (v *verifier) errAt(i int, format string, args ...any) error {
	disasm := safeFormatInst(v.k, i)
	return &VerifyError{
		Kernel: v.k.Name,
		Pass:   v.pass,
		Inst:   i,
		Disasm: disasm,
		Msg:    fmt.Sprintf(format, args...),
	}
}

// Verify checks the structural invariants every executable kernel must
// satisfy: operand counts and kinds per opcode, register indices and
// classes, branch targets, barrier placement and reachability, and declared
// array/param bounds for symbol-addressed accesses. It is run after
// parsing, after register allocation, and after spill-code insertion; pass
// names the stage being checked so a broken transformation is attributed.
func Verify(k *Kernel, pass string) error {
	v := &verifier{k: k, pass: pass}
	if err := v.kernelLevel(); err != nil {
		return err
	}
	for i := range k.Insts {
		if err := v.inst(i); err != nil {
			return err
		}
	}
	return v.barrierReachability()
}

func (v *verifier) kernelLevel() error {
	k := v.k
	seenParam := make(map[string]bool, len(k.Params))
	for _, p := range k.Params {
		if p.Name == "" {
			return v.errAt(-1, "unnamed parameter")
		}
		if seenParam[p.Name] {
			return v.errAt(-1, "duplicate parameter %q", p.Name)
		}
		seenParam[p.Name] = true
	}
	seenArr := make(map[string]bool, len(k.Arrays))
	for _, a := range k.Arrays {
		if a.Name == "" {
			return v.errAt(-1, "unnamed array")
		}
		if seenArr[a.Name] {
			return v.errAt(-1, "duplicate array %q", a.Name)
		}
		seenArr[a.Name] = true
		if a.Space != SpaceLocal && a.Space != SpaceShared {
			return v.errAt(-1, "array %q in unsupported space %s", a.Name, a.Space)
		}
		if a.Size < 0 {
			return v.errAt(-1, "array %q has negative size %d", a.Name, a.Size)
		}
	}
	labels := make(map[string]bool)
	for i, in := range k.Insts {
		if in.Label == "" {
			continue
		}
		if labels[in.Label] {
			return v.errAt(i, "duplicate label %q", in.Label)
		}
		labels[in.Label] = true
	}
	return nil
}

func (v *verifier) checkReg(i int, role string, r Reg) error {
	if r < 0 || int(r) >= v.k.NumRegs() {
		return v.errAt(i, "%s register %d out of range [0,%d)", role, r, v.k.NumRegs())
	}
	return nil
}

// checkRegClass verifies a register operand against the class its slot in
// the instruction demands.
func (v *verifier) checkRegClass(i int, role string, r Reg, want RegClass) error {
	if err := v.checkReg(i, role, r); err != nil {
		return err
	}
	if got := v.k.RegType(r).Class(); got != want {
		return v.errAt(i, "%s register %d has class %v, want %v (type mismatch)",
			role, r, got, want)
	}
	return nil
}

// scalarSrc verifies a non-memory source operand (register, immediate,
// special, or symbol). want is the required register class when the operand
// is a register; ClassNone skips the class check (untyped instructions).
func (v *verifier) scalarSrc(i int, role string, o Operand, want RegClass) error {
	switch o.Kind {
	case OperandReg:
		if want == ClassNone {
			return v.checkReg(i, role, o.Reg)
		}
		return v.checkRegClass(i, role, o.Reg, want)
	case OperandImm, OperandFImm, OperandSpecial:
		return nil
	case OperandSym:
		if _, ok := v.k.Array(o.Sym); ok {
			return nil
		}
		if _, ok := v.k.Param(o.Sym); ok {
			return nil
		}
		return v.errAt(i, "%s references unknown symbol %q", role, o.Sym)
	case OperandMem:
		return v.errAt(i, "%s is a memory operand where a scalar is required", role)
	default:
		return v.errAt(i, "missing %s operand", role)
	}
}

// memOperand verifies a memory operand against the instruction's space and
// access width, including static bounds for symbol-addressed accesses.
func (v *verifier) memOperand(i int, o Operand, space Space, bytes int64) error {
	if o.Kind != OperandMem {
		return v.errAt(i, "memory instruction needs a [addr] operand, got kind %d", o.Kind)
	}
	if o.Reg != NoReg {
		if err := v.checkReg(i, "address", o.Reg); err != nil {
			return err
		}
		cls := v.k.RegType(o.Reg).Class()
		// Shared addresses are SM-local offsets and may be 32-bit.
		if cls != Class64 && !(space == SpaceShared && cls == Class32) {
			return v.errAt(i, "address register %d has class %v, want a 64-bit address", o.Reg, cls)
		}
		return nil
	}
	if o.Sym == "" {
		return v.errAt(i, "memory operand has neither base register nor symbol")
	}
	if a, ok := v.k.Array(o.Sym); ok {
		if space != a.Space {
			return v.errAt(i, "array %q is in %s space but access says %s", o.Sym, a.Space, space)
		}
		if o.Off < 0 || o.Off+bytes > a.Size {
			return v.errAt(i, "access [%s+%d]..%d bytes out of bounds of array %q (size %d)",
				o.Sym, o.Off, bytes, o.Sym, a.Size)
		}
		return nil
	}
	if p, ok := v.k.Param(o.Sym); ok {
		if space != SpaceParam {
			return v.errAt(i, "parameter %q accessed with space %s", o.Sym, space)
		}
		if o.Off < 0 || o.Off+bytes > int64(p.Type.Bytes()) {
			return v.errAt(i, "access [%s+%d]..%d bytes out of bounds of %s parameter %q",
				o.Sym, o.Off, bytes, p.Type, o.Sym)
		}
		return nil
	}
	return v.errAt(i, "unknown symbol %q in address", o.Sym)
}

// dstClass is the register class a typed instruction's destination must
// have; ClassNone means no constraint (untyped instruction).
func dstClass(in *Inst) RegClass {
	if in.Op == OpSetp {
		return ClassPred
	}
	if in.Type == TypeNone {
		return ClassNone
	}
	return in.Type.Class()
}

// srcClass is the class required of register sources in slot idx.
func srcClass(in *Inst, idx int) RegClass {
	switch {
	case in.Op == OpSelp && idx == 2:
		return ClassPred
	case in.Op == OpCvt:
		if in.CvtFrom == TypeNone {
			return ClassNone
		}
		return in.CvtFrom.Class()
	case (in.Op == OpShl || in.Op == OpShr) && idx == 1:
		// Shift amounts are 32-bit regardless of the operand width.
		return ClassNone
	case in.Type == TypeNone:
		return ClassNone
	default:
		return in.Type.Class()
	}
}

// arity returns the required source-operand count for an opcode, or -1 when
// the opcode carries no sources (control flow).
func arity(op Opcode) int {
	switch op {
	case OpNop, OpBra, OpBar, OpRet, OpExit:
		return -1
	case OpMov, OpCvt, OpAbs, OpNeg, OpNot, OpRcp, OpSqrt, OpRsqrt,
		OpSin, OpCos, OpLg2, OpEx2, OpLd, OpSt:
		return 1
	case OpAdd, OpSub, OpMul, OpDiv, OpRem, OpMin, OpMax,
		OpAnd, OpOr, OpXor, OpShl, OpShr, OpSetp:
		return 2
	case OpMad, OpSelp:
		return 3
	}
	return -1
}

func (v *verifier) inst(i int) error {
	in := &v.k.Insts[i]
	if in.Guard != NoReg {
		if err := v.checkRegClass(i, "guard", in.Guard, ClassPred); err != nil {
			return err
		}
	}

	switch in.Op {
	case OpNop, OpRet, OpExit:
		if in.Dst.Kind != OperandNone || len(in.Srcs) != 0 {
			return v.errAt(i, "%s takes no operands", in.Op)
		}
		return nil
	case OpBar:
		if in.Dst.Kind != OperandNone || len(in.Srcs) != 0 {
			return v.errAt(i, "bar.sync takes no operands")
		}
		if in.Guard != NoReg {
			return v.errAt(i, "barrier must not be predicated (divergent warps would deadlock)")
		}
		return nil
	case OpBra:
		if in.Target == "" {
			return v.errAt(i, "branch without target")
		}
		if _, ok := v.k.LabelIndex(in.Target); !ok {
			return v.errAt(i, "undefined branch target %q", in.Target)
		}
		if in.Dst.Kind != OperandNone || len(in.Srcs) != 0 {
			return v.errAt(i, "bra takes only a target")
		}
		return nil
	}

	want := arity(in.Op)
	if want < 0 {
		return v.errAt(i, "unknown opcode %d", in.Op)
	}
	if len(in.Srcs) != want {
		return v.errAt(i, "%s needs %d source operands, has %d", in.Op, want, len(in.Srcs))
	}

	switch in.Op {
	case OpLd:
		if in.Dst.Kind != OperandReg {
			return v.errAt(i, "ld destination must be a register")
		}
		if in.Space == SpaceNone {
			return v.errAt(i, "ld without a state space")
		}
		if in.Type.Bytes() == 0 {
			return v.errAt(i, "ld with zero-width type %s", in.Type)
		}
		if err := v.checkRegClass(i, "destination", in.Dst.Reg, in.Type.Class()); err != nil {
			return err
		}
		return v.memOperand(i, in.Srcs[0], in.Space, int64(in.Type.Bytes()))
	case OpSt:
		switch in.Space {
		case SpaceGlobal, SpaceLocal, SpaceShared:
		case SpaceNone:
			return v.errAt(i, "st without a state space")
		default:
			return v.errAt(i, "cannot store to %s space", in.Space)
		}
		if in.Type.Bytes() == 0 {
			return v.errAt(i, "st with zero-width type %s", in.Type)
		}
		if err := v.memOperand(i, in.Dst, in.Space, int64(in.Type.Bytes())); err != nil {
			return err
		}
		return v.scalarSrc(i, "store value", in.Srcs[0], in.Type.Class())
	case OpCvt:
		if in.Type == TypeNone || in.CvtFrom == TypeNone {
			return v.errAt(i, "cvt needs both destination and source types")
		}
	case OpSetp:
		if in.Cmp == CmpNone {
			return v.errAt(i, "setp without a comparison operator")
		}
	}

	// Generic ALU/mov/setp/selp shape: register destination, scalar sources.
	if in.Dst.Kind != OperandReg {
		return v.errAt(i, "%s destination must be a register", in.Op)
	}
	if want := dstClass(in); want == ClassNone {
		if err := v.checkReg(i, "destination", in.Dst.Reg); err != nil {
			return err
		}
	} else if err := v.checkRegClass(i, "destination", in.Dst.Reg, want); err != nil {
		return err
	}
	for idx, src := range in.Srcs {
		role := srcRoles[idx]
		if in.Op == OpSelp && idx == 2 && src.Kind != OperandReg {
			// The predicate is read from the register file; an immediate
			// has no register to read.
			return v.errAt(i, "%s of selp must be a predicate register", role)
		}
		cls := srcClass(in, idx)
		if src.Kind == OperandSym && in.Op == OpMov {
			// mov reg, symbol materializes an array/param address; the
			// destination width, not the symbol, decides the class.
			cls = ClassNone
		}
		if err := v.scalarSrc(i, role, src, cls); err != nil {
			return err
		}
	}
	return nil
}

// srcRoles names the source operands verification errors cite, one per
// index up to the largest arity, so the success path formats nothing.
var srcRoles = [...]string{"source 0", "source 1", "source 2"}

// barrierReachability walks the CFG from the entry and rejects barriers in
// unreachable code: a transformation that orphans a bar.sync has broken the
// block-synchronization protocol even though the dead code never executes.
func (v *verifier) barrierReachability() error {
	insts := v.k.Insts
	if len(insts) == 0 {
		return nil
	}
	reached := make([]bool, len(insts))
	work := []int{0}
	reached[0] = true
	push := func(j int) {
		if j >= 0 && j < len(insts) && !reached[j] {
			reached[j] = true
			work = append(work, j)
		}
	}
	for len(work) > 0 {
		i := work[len(work)-1]
		work = work[:len(work)-1]
		in := &insts[i]
		switch in.Op {
		case OpBra:
			if t, ok := v.k.LabelIndex(in.Target); ok {
				push(t)
			}
			if in.Guard != NoReg {
				push(i + 1)
			}
		case OpExit, OpRet:
			if in.Guard != NoReg {
				push(i + 1)
			}
		default:
			push(i + 1)
		}
	}
	for i := range insts {
		if insts[i].Op == OpBar && !reached[i] {
			return v.errAt(i, "barrier is unreachable from the kernel entry")
		}
	}
	return nil
}
