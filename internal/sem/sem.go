// Package sem defines the functional semantics of the PTX subset: raw
// register bit patterns, ALU/comparison/conversion evaluation, and the
// sparse global-memory image. It is the reference definition: both
// execution engines — the cycle-level simulator (internal/gpusim) and the
// timing-free functional emulator (internal/emu) — run the 32-lane kernels
// of internal/vec, which mirror these formulas bit for bit or call them, so
// the differential oracle compares *execution order and rewrite
// correctness*, never two divergent reimplementations of arithmetic.
package sem

import (
	"fmt"
	"math"

	"crat/internal/ptx"
)

// Register values are stored as raw uint64 bit patterns; the instruction
// type selects the interpretation, matching PTX's untyped register file
// semantics.

// F32Bits returns the raw representation of a float32 value.
func F32Bits(v float32) uint64 { return uint64(math.Float32bits(v)) }

// BitsF32 interprets a raw value as a float32.
func BitsF32(b uint64) float32 { return math.Float32frombits(uint32(b)) }

// F64Bits returns the raw representation of a float64 value.
func F64Bits(v float64) uint64 { return math.Float64bits(v) }

// BitsF64 interprets a raw value as a float64.
func BitsF64(b uint64) float64 { return math.Float64frombits(b) }

// Canonical NaN bit patterns. A NaN result of add, sub, mul, mad or div is
// canonical: IEEE 754 leaves open which input NaN such an operation
// propagates, and the Go compiler may order a commutative operation's
// operands either way, so a propagated payload would depend on how the
// evaluating code was compiled.
const (
	CanonNaN32 = 0x7fffffff
	CanonNaN64 = 0x7fffffffffffffff
)

// ArithF32Bits is F32Bits for an add/sub/mul/mad/div result: a NaN becomes
// CanonNaN32.
func ArithF32Bits(v float32) uint64 {
	if v != v {
		return CanonNaN32
	}
	return F32Bits(v)
}

// ArithF64Bits is F64Bits for an add/sub/mul/mad/div result: a NaN becomes
// CanonNaN64.
func ArithF64Bits(v float64) uint64 {
	if v != v {
		return CanonNaN64
	}
	return F64Bits(v)
}

// Truncate masks v to the width of t.
func Truncate(v uint64, t ptx.Type) uint64 {
	switch t.Bits() {
	case 8:
		return v & 0xff
	case 16:
		return v & 0xffff
	case 32:
		return v & 0xffffffff
	default:
		return v
	}
}

// width is the number of value bits Truncate keeps for t: 8, 16 or 32
// for the narrow types, 64 for everything else.
func width(t ptx.Type) int {
	switch w := t.Bits(); w {
	case 8, 16, 32:
		return w
	}
	return 64
}

// SignExtend interprets the low bits of v as a signed integer of t's width.
func SignExtend(v uint64, t ptx.Type) int64 {
	switch t.Bits() {
	case 8:
		return int64(int8(v))
	case 16:
		return int64(int16(v))
	case 32:
		return int64(int32(v))
	default:
		return int64(v)
	}
}

// ImmBits encodes an immediate operand into the raw representation of t.
func ImmBits(o ptx.Operand, t ptx.Type) uint64 {
	if o.Kind == ptx.OperandFImm {
		if t == ptx.F64 {
			return F64Bits(o.FImm)
		}
		return F32Bits(float32(o.FImm))
	}
	// Integer immediate: also usable by float ops as a converted constant.
	if t == ptx.F32 {
		return F32Bits(float32(o.Imm))
	}
	if t == ptx.F64 {
		return F64Bits(float64(o.Imm))
	}
	return Truncate(uint64(o.Imm), t)
}

// ALU computes a two- or three-operand arithmetic/logic instruction on raw
// values a, b, c interpreted at type t. Integer division by zero yields
// all-ones (matching NVIDIA hardware behaviour rather than trapping).
func ALU(op ptx.Opcode, t ptx.Type, a, b, c uint64) (uint64, error) {
	if t.IsFloat() {
		return aluFloat(op, t, a, b, c)
	}
	return aluInt(op, t, a, b, c)
}

func aluInt(op ptx.Opcode, t ptx.Type, a, b, c uint64) (uint64, error) {
	signed := t.IsSigned()
	switch op {
	case ptx.OpAdd:
		return Truncate(a+b, t), nil
	case ptx.OpSub:
		return Truncate(a-b, t), nil
	case ptx.OpMul:
		return Truncate(a*b, t), nil
	case ptx.OpMad:
		return Truncate(a*b+c, t), nil
	case ptx.OpDiv:
		if Truncate(b, t) == 0 {
			return Truncate(^uint64(0), t), nil
		}
		if signed {
			return Truncate(uint64(SignExtend(a, t)/SignExtend(b, t)), t), nil
		}
		return Truncate(Truncate(a, t)/Truncate(b, t), t), nil
	case ptx.OpRem:
		if Truncate(b, t) == 0 {
			return Truncate(^uint64(0), t), nil
		}
		if signed {
			return Truncate(uint64(SignExtend(a, t)%SignExtend(b, t)), t), nil
		}
		return Truncate(Truncate(a, t)%Truncate(b, t), t), nil
	case ptx.OpMin:
		if signed {
			if SignExtend(a, t) < SignExtend(b, t) {
				return Truncate(a, t), nil
			}
			return Truncate(b, t), nil
		}
		if Truncate(a, t) < Truncate(b, t) {
			return Truncate(a, t), nil
		}
		return Truncate(b, t), nil
	case ptx.OpMax:
		if signed {
			if SignExtend(a, t) > SignExtend(b, t) {
				return Truncate(a, t), nil
			}
			return Truncate(b, t), nil
		}
		if Truncate(a, t) > Truncate(b, t) {
			return Truncate(a, t), nil
		}
		return Truncate(b, t), nil
	case ptx.OpAbs:
		if signed && SignExtend(a, t) < 0 {
			return Truncate(uint64(-SignExtend(a, t)), t), nil
		}
		return Truncate(a, t), nil
	case ptx.OpNeg:
		return Truncate(uint64(-SignExtend(a, t)), t), nil
	case ptx.OpAnd:
		return Truncate(a&b, t), nil
	case ptx.OpOr:
		return Truncate(a|b, t), nil
	case ptx.OpXor:
		return Truncate(a^b, t), nil
	case ptx.OpNot:
		return Truncate(^a, t), nil
	case ptx.OpShl:
		return Truncate(a<<shiftAmount(b, t), t), nil
	case ptx.OpShr:
		if signed {
			return Truncate(uint64(SignExtend(a, t)>>shiftAmount(b, t)), t), nil
		}
		return Truncate(Truncate(a, t)>>shiftAmount(b, t), t), nil
	case ptx.OpMov:
		return Truncate(a, t), nil
	}
	return 0, fmt.Errorf("sem: integer op %v unsupported", op)
}

// shiftAmount reads a shift's b operand as PTX does: a u32, with amounts
// beyond the register width of t clamped to that width (so shl and shr.u
// yield 0 and shr.s yields the sign fill).
func shiftAmount(b uint64, t ptx.Type) uint64 {
	return min(b&0xffffffff, uint64(width(t)))
}

func aluFloat(op ptx.Opcode, t ptx.Type, a, b, c uint64) (uint64, error) {
	if t == ptx.F32 {
		fa, fb, fc := BitsF32(a), BitsF32(b), BitsF32(c)
		var r float32
		switch op {
		case ptx.OpAdd:
			r = fa + fb
		case ptx.OpSub:
			r = fa - fb
		case ptx.OpMul:
			r = fa * fb
		case ptx.OpMad:
			r = fa*fb + fc
		case ptx.OpDiv:
			r = fa / fb
		case ptx.OpMin:
			r = float32(math.Min(float64(fa), float64(fb)))
		case ptx.OpMax:
			r = float32(math.Max(float64(fa), float64(fb)))
		case ptx.OpAbs:
			r = float32(math.Abs(float64(fa)))
		case ptx.OpNeg:
			r = -fa
		case ptx.OpMov:
			r = fa
		case ptx.OpRcp:
			r = 1 / fa
		case ptx.OpSqrt:
			r = float32(math.Sqrt(float64(fa)))
		case ptx.OpRsqrt:
			r = float32(1 / math.Sqrt(float64(fa)))
		case ptx.OpSin:
			r = float32(math.Sin(float64(fa)))
		case ptx.OpCos:
			r = float32(math.Cos(float64(fa)))
		case ptx.OpLg2:
			r = float32(math.Log2(float64(fa)))
		case ptx.OpEx2:
			r = float32(math.Exp2(float64(fa)))
		default:
			return 0, fmt.Errorf("sem: f32 op %v unsupported", op)
		}
		switch op {
		case ptx.OpAdd, ptx.OpSub, ptx.OpMul, ptx.OpMad, ptx.OpDiv:
			return ArithF32Bits(r), nil
		}
		return F32Bits(r), nil
	}
	fa, fb, fc := BitsF64(a), BitsF64(b), BitsF64(c)
	var r float64
	switch op {
	case ptx.OpAdd:
		r = fa + fb
	case ptx.OpSub:
		r = fa - fb
	case ptx.OpMul:
		r = fa * fb
	case ptx.OpMad:
		r = fa*fb + fc
	case ptx.OpDiv:
		r = fa / fb
	case ptx.OpMin:
		r = math.Min(fa, fb)
	case ptx.OpMax:
		r = math.Max(fa, fb)
	case ptx.OpAbs:
		r = math.Abs(fa)
	case ptx.OpNeg:
		r = -fa
	case ptx.OpMov:
		r = fa
	case ptx.OpRcp:
		r = 1 / fa
	case ptx.OpSqrt:
		r = math.Sqrt(fa)
	case ptx.OpRsqrt:
		r = 1 / math.Sqrt(fa)
	case ptx.OpSin:
		r = math.Sin(fa)
	case ptx.OpCos:
		r = math.Cos(fa)
	case ptx.OpLg2:
		r = math.Log2(fa)
	case ptx.OpEx2:
		r = math.Exp2(fa)
	default:
		return 0, fmt.Errorf("sem: f64 op %v unsupported", op)
	}
	switch op {
	case ptx.OpAdd, ptx.OpSub, ptx.OpMul, ptx.OpMad, ptx.OpDiv:
		return ArithF64Bits(r), nil
	}
	return F64Bits(r), nil
}

// Compare evaluates a setp comparison on raw values at type t. Unordered
// float comparisons (NaN operands) follow IEEE semantics: every ordered
// predicate is false, Ne is true.
func Compare(cmp ptx.CmpOp, t ptx.Type, a, b uint64) (bool, error) {
	var lt, eq bool
	switch {
	case t.IsFloat():
		var fa, fb float64
		if t == ptx.F32 {
			fa, fb = float64(BitsF32(a)), float64(BitsF32(b))
		} else {
			fa, fb = BitsF64(a), BitsF64(b)
		}
		if math.IsNaN(fa) || math.IsNaN(fb) {
			return cmp == ptx.CmpNe, nil
		}
		lt, eq = fa < fb, fa == fb
	case t.IsSigned():
		sa, sb := SignExtend(a, t), SignExtend(b, t)
		lt, eq = sa < sb, sa == sb
	default:
		ua, ub := Truncate(a, t), Truncate(b, t)
		lt, eq = ua < ub, ua == ub
	}
	switch cmp {
	case ptx.CmpEq:
		return eq, nil
	case ptx.CmpNe:
		return !eq, nil
	case ptx.CmpLt:
		return lt, nil
	case ptx.CmpLe:
		return lt || eq, nil
	case ptx.CmpGt:
		return !lt && !eq, nil
	case ptx.CmpGe:
		return !lt, nil
	}
	return false, fmt.Errorf("sem: comparison %v unsupported", cmp)
}

// Convert implements cvt.to.from on a raw value.
func Convert(to, from ptx.Type, v uint64) (uint64, error) {
	switch {
	case from.IsFloat() && to.IsFloat():
		if from == to {
			return v, nil
		}
		if from == ptx.F32 {
			return F64Bits(float64(BitsF32(v))), nil
		}
		return F32Bits(float32(BitsF64(v))), nil
	case from.IsFloat() && !to.IsFloat():
		var f float64
		if from == ptx.F32 {
			f = float64(BitsF32(v))
		} else {
			f = BitsF64(v)
		}
		return floatToInt(f, to), nil
	case !from.IsFloat() && to.IsFloat():
		var f float64
		if from.IsSigned() {
			f = float64(SignExtend(v, from))
		} else {
			f = float64(Truncate(v, from))
		}
		if to == ptx.F32 {
			return F32Bits(float32(f)), nil
		}
		return F64Bits(f), nil
	default:
		if from.IsSigned() {
			return Truncate(uint64(SignExtend(v, from)), to), nil
		}
		return Truncate(Truncate(v, from), to), nil
	}
}

// floatToInt converts f to the integer type t as PTX's float-to-integer
// cvt does by default: the fraction is truncated toward zero, the result
// saturates to t's range, and NaN maps to 0. Go leaves out-of-range
// float-to-integer conversions implementation-defined, so every edge is
// decided here before converting.
func floatToInt(f float64, t ptx.Type) uint64 {
	if math.IsNaN(f) {
		return 0
	}
	f = math.Trunc(f)
	w := width(t)
	if t.IsSigned() {
		limit := math.Ldexp(1, w-1) // 2^(w-1): the first value above MaxInt
		switch {
		case f >= limit:
			return Truncate(1<<(w-1)-1, t)
		case f <= -limit:
			return Truncate(1<<(w-1), t)
		}
		return Truncate(uint64(int64(f)), t)
	}
	switch {
	case f <= 0:
		return 0
	case f >= math.Ldexp(1, w):
		return Truncate(^uint64(0), t)
	}
	return uint64(f)
}
