package ptx

import "strconv"

// regPrefix returns the canonical register-name prefix for a type, following
// the conventions nvcc-generated PTX uses (%r for 32-bit integers, %rd for
// 64-bit, %f/%fd for floats, %p for predicates).
func regPrefix(t Type) string {
	switch t.Class() {
	case ClassPred:
		return "%p"
	case Class64:
		if t == F64 {
			return "%fd"
		}
		return "%rd"
	default:
		if t == F32 {
			return "%f"
		}
		if t.Bits() == 16 {
			return "%rs"
		}
		if t.Bits() == 8 {
			return "%rc"
		}
		return "%r"
	}
}

// appendReg appends register r's printable name, prefix + register id, so
// names are globally unique and stable. regs is the kernel's RegTypes.
func appendReg(b []byte, r Reg, regs []Type) []byte {
	b = append(b, regPrefix(regs[r])...)
	return strconv.AppendInt(b, int64(r), 10)
}

// kernelSize estimates a kernel's printed length from its declaration,
// register and instruction counts, so the one buffer a print fills rarely
// grows.
func kernelSize(k *Kernel) int {
	return 64 + len(k.Name) + 24*len(k.Params) + 8*len(k.RegTypes) + 48*len(k.Arrays) + 40*len(k.Insts)
}

// Print renders the kernel in PTX text form. The output is a self-consistent
// PTX subset dialect that Parse accepts; see the package comment.
func Print(k *Kernel) string {
	return string(appendKernel(make([]byte, 0, kernelSize(k)), k))
}

// PrintModule renders a module with its version/target header. The result
// is sized exactly: callers such as a compile cache keep it for the life of
// the process, and a grown buffer would keep its slack.
func PrintModule(m *Module) string {
	version := m.Version
	if version == "" {
		version = "3.2"
	}
	target := m.Target
	if target == "" {
		target = "sm_20"
	}
	size := 64 + len(version) + len(target)
	for _, k := range m.Kernels {
		size += kernelSize(k) + 1
	}
	b := make([]byte, 0, size)
	b = append(b, ".version "...)
	b = append(b, version...)
	b = append(b, "\n.target "...)
	b = append(b, target...)
	b = append(b, "\n.address_size 64\n\n"...)
	for _, k := range m.Kernels {
		b = appendKernel(b, k)
		b = append(b, '\n')
	}
	return string(b)
}

// appendKernel appends the text of one kernel: header, parameters,
// declarations and body.
func appendKernel(b []byte, k *Kernel) []byte {
	b = append(b, ".visible .entry "...)
	b = append(b, k.Name...)
	b = append(b, "(\n"...)
	for i, p := range k.Params {
		b = append(b, "\t.param ."...)
		b = append(b, p.Type.String()...)
		b = append(b, ' ')
		b = append(b, p.Name...)
		if i < len(k.Params)-1 {
			b = append(b, ',')
		}
		b = append(b, '\n')
	}
	b = append(b, ")\n{\n"...)

	// Register declarations grouped by exact type, in type order then id order.
	var present [256]bool
	for _, t := range k.RegTypes {
		present[t] = true
	}
	for t := range present {
		if !present[t] {
			continue
		}
		b = append(b, "\t.reg ."...)
		b = append(b, Type(t).String()...)
		sep := " "
		for r, rt := range k.RegTypes {
			if rt == Type(t) {
				b = append(b, sep...)
				b = appendReg(b, Reg(r), k.RegTypes)
				sep = ", "
			}
		}
		b = append(b, ";\n"...)
	}
	for _, d := range k.Arrays {
		b = append(b, "\t."...)
		b = append(b, d.Space.String()...)
		b = append(b, " .align "...)
		b = strconv.AppendInt(b, int64(d.Align), 10)
		b = append(b, " .b8 "...)
		b = append(b, d.Name...)
		b = append(b, '[')
		b = strconv.AppendInt(b, d.Size, 10)
		b = append(b, "];\n"...)
	}
	b = append(b, '\n')

	for i := range k.Insts {
		in := &k.Insts[i]
		if in.Label != "" {
			b = append(b, in.Label...)
			b = append(b, ":\n"...)
		}
		b = append(b, '\t')
		b = appendInst(b, in, k.RegTypes)
		b = append(b, '\n')
	}
	return append(b, "}\n"...)
}

const upperHex = "0123456789ABCDEF"

// appendOperand appends one operand; regs is the kernel's RegTypes.
func appendOperand(b []byte, o Operand, regs []Type) []byte {
	switch o.Kind {
	case OperandReg:
		return appendReg(b, o.Reg, regs)
	case OperandImm:
		return strconv.AppendInt(b, o.Imm, 10)
	case OperandFImm:
		// 0D and the 16 upper-case hex digits of the IEEE-754 bits.
		bits := floatBits64(o.FImm)
		b = append(b, "0D"...)
		for shift := 60; shift >= 0; shift -= 4 {
			b = append(b, upperHex[bits>>uint(shift)&0xF])
		}
		return b
	case OperandSpecial:
		return append(b, o.Spec.String()...)
	case OperandSym:
		return append(b, o.Sym...)
	case OperandMem:
		b = append(b, '[')
		if o.Reg != NoReg {
			b = appendReg(b, o.Reg, regs)
		} else {
			b = append(b, o.Sym...)
		}
		if o.Off > 0 {
			b = append(b, '+')
		}
		if o.Off != 0 {
			b = strconv.AppendInt(b, o.Off, 10)
		}
		return append(b, ']')
	}
	return append(b, '?')
}

// appendInst appends one instruction (without label or indentation); regs
// is the kernel's RegTypes.
func appendInst(b []byte, in *Inst, regs []Type) []byte {
	if in.Guard != NoReg {
		b = append(b, '@')
		if in.GuardNeg {
			b = append(b, '!')
		}
		b = appendReg(b, in.Guard, regs)
		b = append(b, ' ')
	}
	switch in.Op {
	case OpBra:
		b = append(b, "bra "...)
		b = append(b, in.Target...)
		return append(b, ';')
	case OpBar:
		return append(b, "bar.sync 0;"...)
	case OpRet:
		return append(b, "ret;"...)
	case OpExit:
		return append(b, "exit;"...)
	case OpNop:
		return append(b, "nop;"...)
	case OpCvt:
		b = append(b, "cvt."...)
		b = append(b, in.Type.String()...)
		b = append(b, '.')
		b = append(b, in.CvtFrom.String()...)
	default:
		b = append(b, in.Op.String()...)
		switch in.Op {
		case OpMul, OpMad:
			if in.Type.IsInt() {
				b = append(b, ".lo"...)
			}
		case OpDiv:
			if in.Type.IsFloat() {
				b = append(b, ".rn"...)
			}
		case OpRcp, OpRsqrt, OpSin, OpCos, OpLg2, OpEx2:
			b = append(b, ".approx"...)
		case OpSqrt:
			b = append(b, ".rn"...)
		case OpSetp:
			b = append(b, '.')
			b = append(b, in.Cmp.String()...)
		case OpLd, OpSt:
			b = append(b, '.')
			b = append(b, in.Space.String()...)
			if in.Bypass {
				b = append(b, ".cg"...)
			}
		}
		if in.Type != TypeNone {
			b = append(b, '.')
			b = append(b, in.Type.String()...)
		}
	}
	b = append(b, ' ')

	first := true
	if in.Op == OpSt || in.Dst.Kind != OperandNone {
		b = appendOperand(b, in.Dst, regs)
		first = false
	}
	for _, s := range in.Srcs {
		if !first {
			b = append(b, ", "...)
		}
		b = appendOperand(b, s, regs)
		first = false
	}
	return append(b, ';')
}

// FormatInst renders a single instruction of kernel k, for diagnostics.
// Only the registers the instruction names are formatted.
func FormatInst(k *Kernel, i int) string {
	return string(appendInst(make([]byte, 0, 64), &k.Insts[i], k.RegTypes))
}
