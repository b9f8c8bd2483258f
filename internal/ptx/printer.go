package ptx

import (
	"fmt"
	"sort"
	"strings"
)

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

// regNames assigns a printable name to every register in the kernel:
// prefix + register id, so names are globally unique and stable.
func regNames(k *Kernel) []string {
	names := make([]string, len(k.RegTypes))
	for i, t := range k.RegTypes {
		names[i] = fmt.Sprintf("%s%d", regPrefix(t), i)
	}
	return names
}

// Print renders the kernel in PTX text form. The output is a self-consistent
// PTX subset dialect that Parse accepts; see the package comment.
func Print(k *Kernel) string {
	var b strings.Builder
	names := regNames(k)

	fmt.Fprintf(&b, ".visible .entry %s(\n", k.Name)
	for i, p := range k.Params {
		comma := ","
		if i == len(k.Params)-1 {
			comma = ""
		}
		fmt.Fprintf(&b, "\t.param .%s %s%s\n", p.Type, p.Name, comma)
	}
	b.WriteString(")\n{\n")

	// Register declarations grouped by exact type, in type order then id order.
	byType := make(map[Type][]string)
	for i, t := range k.RegTypes {
		byType[t] = append(byType[t], names[i])
	}
	types := make([]Type, 0, len(byType))
	for t := range byType {
		types = append(types, t)
	}
	sort.Slice(types, func(a, b int) bool { return types[a] < types[b] })
	for _, t := range types {
		fmt.Fprintf(&b, "\t.reg .%s %s;\n", t, strings.Join(byType[t], ", "))
	}
	for _, d := range k.Arrays {
		fmt.Fprintf(&b, "\t.%s .align %d .b8 %s[%d];\n", d.Space, d.Align, d.Name, d.Size)
	}
	b.WriteString("\n")

	for i := range k.Insts {
		in := &k.Insts[i]
		if in.Label != "" {
			fmt.Fprintf(&b, "%s:\n", in.Label)
		}
		b.WriteString("\t")
		b.WriteString(formatInst(in, names))
		b.WriteString("\n")
	}
	b.WriteString("}\n")
	return b.String()
}

// PrintModule renders a module with its version/target header.
func PrintModule(m *Module) string {
	var b strings.Builder
	version := m.Version
	if version == "" {
		version = "3.2"
	}
	target := m.Target
	if target == "" {
		target = "sm_20"
	}
	header := fmt.Sprintf(".version %s\n.target %s\n.address_size 64\n\n", version, target)
	kernels := make([]string, len(m.Kernels))
	size := len(header)
	for i, k := range m.Kernels {
		kernels[i] = Print(k)
		size += len(kernels[i]) + 1
	}
	// Sized exactly: callers such as a compile cache keep the result for
	// the life of the process, and a grown builder would keep its slack.
	b.Grow(size)
	b.WriteString(header)
	for _, k := range kernels {
		b.WriteString(k)
		b.WriteString("\n")
	}
	return b.String()
}

func formatOperand(o Operand, names []string) string {
	switch o.Kind {
	case OperandReg:
		return names[o.Reg]
	case OperandImm:
		return fmt.Sprintf("%d", o.Imm)
	case OperandFImm:
		return fmt.Sprintf("0D%016X", floatBits64(o.FImm))
	case OperandSpecial:
		return o.Spec.String()
	case OperandSym:
		return o.Sym
	case OperandMem:
		base := o.Sym
		if o.Reg != NoReg {
			base = names[o.Reg]
		}
		if o.Off != 0 {
			return fmt.Sprintf("[%s%+d]", base, o.Off)
		}
		return fmt.Sprintf("[%s]", base)
	}
	return "?"
}

// formatInst renders one instruction (without label or indentation).
func formatInst(in *Inst, names []string) string {
	var b strings.Builder
	if in.Guard != NoReg {
		if in.GuardNeg {
			fmt.Fprintf(&b, "@!%s ", names[in.Guard])
		} else {
			fmt.Fprintf(&b, "@%s ", names[in.Guard])
		}
	}
	switch in.Op {
	case OpBra:
		fmt.Fprintf(&b, "bra %s;", in.Target)
		return b.String()
	case OpBar:
		b.WriteString("bar.sync 0;")
		return b.String()
	case OpRet:
		b.WriteString("ret;")
		return b.String()
	case OpExit:
		b.WriteString("exit;")
		return b.String()
	case OpNop:
		b.WriteString("nop;")
		return b.String()
	}

	mnemonic := in.Op.String()
	switch in.Op {
	case OpMul, OpMad:
		if in.Type.IsInt() {
			mnemonic += ".lo"
		}
	case OpDiv:
		if in.Type.IsFloat() {
			mnemonic += ".rn"
		}
	case OpRcp, OpRsqrt, OpSin, OpCos, OpLg2, OpEx2:
		mnemonic += ".approx"
	case OpSqrt:
		mnemonic += ".rn"
	case OpSetp:
		mnemonic += "." + in.Cmp.String()
	case OpLd, OpSt:
		mnemonic += "." + in.Space.String()
		if in.Bypass {
			mnemonic += ".cg"
		}
	}
	if in.Op == OpCvt {
		fmt.Fprintf(&b, "cvt.%s.%s", in.Type, in.CvtFrom)
	} else if in.Type != TypeNone {
		fmt.Fprintf(&b, "%s.%s", mnemonic, in.Type)
	} else {
		b.WriteString(mnemonic)
	}
	b.WriteString(" ")

	ops := make([]string, 0, 4)
	if in.Op == OpSt {
		ops = append(ops, formatOperand(in.Dst, names))
		for _, s := range in.Srcs {
			ops = append(ops, formatOperand(s, names))
		}
	} else {
		if in.Dst.Kind != OperandNone {
			ops = append(ops, formatOperand(in.Dst, names))
		}
		for _, s := range in.Srcs {
			ops = append(ops, formatOperand(s, names))
		}
	}
	b.WriteString(strings.Join(ops, ", "))
	b.WriteString(";")
	return b.String()
}

// FormatInst renders a single instruction of kernel k, for diagnostics.
func FormatInst(k *Kernel, i int) string {
	return formatInst(&k.Insts[i], regNames(k))
}
