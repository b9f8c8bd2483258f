package vec

import (
	"math"
	"math/bits"

	"crat/internal/ptx"
	"crat/internal/sem"
)

// A Fn applies one ALU-class Op to a whole warp at once: d, a, b, c
// are 32-lane register planes (unused sources point at zeroPlane) and mask
// selects the executing lanes. The table below hand-specializes the common
// integer operations at their two register widths and the common f32/f64
// operations — mirroring internal/sem's formulas bit for bit — and routes
// everything else (setp, cvt with a float endpoint, the remaining float
// ops, exotic widths) through sem itself, so the arithmetic has a single
// definition. Lowering happens once per kernel in lower, so picking a
// function here is free on the hot path. The bodies spell their lane loops
// out rather than sharing an iterator helper: an indirect call per lane
// would cost more than the arithmetic it wraps.
type Fn func(d, a, b, c *[32]uint64, mask uint64)

// fullWarp is the mask of a warp whose 32 lanes all execute. The kernels
// most frequent in both engines' profiles test for it and run a plain lane
// loop instead of scanning the mask bit by bit.
const fullWarp = 1<<32 - 1

// zeroPlane backs absent source slots: reads yield 0, the value sem's
// formulas take for a missing operand.
var zeroPlane [32]uint64

// fnFor selects the evaluation kernel for an ALU-class instruction. The
// instruction is statically supported (ClassBad ops never reach here), so
// sem calls inside the returned functions cannot fail.
func fnFor(u *ptx.Inst) Fn {
	t := u.Type
	switch u.Op {
	case ptx.OpSetp:
		return vecSetp(u.Cmp, t)
	case ptx.OpSelp:
		return vecSelp
	case ptx.OpCvt:
		if !t.IsFloat() && !u.CvtFrom.IsFloat() {
			return vecCvtInt(t, u.CvtFrom)
		}
		return vecCvtSem(t, u.CvtFrom)
	}
	if !t.IsFloat() {
		switch t.Bits() {
		case 32:
			if fn := vecInt32(u.Op, t.IsSigned()); fn != nil {
				return fn
			}
		case 64:
			if fn := vecInt64(u.Op, t.IsSigned()); fn != nil {
				return fn
			}
		}
	} else if t == ptx.F32 {
		if fn := vecF32(u.Op); fn != nil {
			return fn
		}
	} else if t == ptx.F64 {
		if fn := vecF64(u.Op); fn != nil {
			return fn
		}
	}
	return vecGeneric(u.Op, t)
}

// vecGeneric is the catch-all: per-lane sem.ALU, so the ops without a
// specialization keep sem's exact definition.
func vecGeneric(op ptx.Opcode, t ptx.Type) Fn {
	return func(d, a, b, c *[32]uint64, mask uint64) {
		for m := mask; m != 0; m &= m - 1 {
			l := bits.TrailingZeros64(m)
			v, _ := sem.ALU(op, t, a[l], b[l], c[l])
			d[l] = v
		}
	}
}

// vecSetp evaluates a predicate-producing comparison per lane through
// sem.Compare (two small switches; the operand resolution that used to
// dominate is already gone).
func vecSetp(cmp ptx.CmpOp, t ptx.Type) Fn {
	return func(d, a, b, c *[32]uint64, mask uint64) {
		if mask == fullWarp {
			for l := range d {
				ok, _ := sem.Compare(cmp, t, a[l], b[l])
				v := uint64(0)
				if ok {
					v = 1
				}
				d[l] = v
			}
			return
		}
		for m := mask; m != 0; m &= m - 1 {
			l := bits.TrailingZeros64(m)
			ok, _ := sem.Compare(cmp, t, a[l], b[l])
			v := uint64(0)
			if ok {
				v = 1
			}
			d[l] = v
		}
	}
}

// vecSelp selects a or b on the predicate in c. The lane's reads complete
// before its write, so d aliasing a source plane is safe.
func vecSelp(d, a, b, c *[32]uint64, mask uint64) {
	for m := mask; m != 0; m &= m - 1 {
		l := bits.TrailingZeros64(m)
		if c[l] != 0 {
			d[l] = a[l]
		} else {
			d[l] = b[l]
		}
	}
}

// vecCvtSem routes conversions with a float endpoint through sem.Convert.
func vecCvtSem(to, from ptx.Type) Fn {
	return func(d, a, b, c *[32]uint64, mask uint64) {
		for m := mask; m != 0; m &= m - 1 {
			l := bits.TrailingZeros64(m)
			v, _ := sem.Convert(to, from, a[l])
			d[l] = v
		}
	}
}

// vecCvtInt specializes integer-to-integer conversion: sign- or zero-extend
// at the source width, then truncate at the destination width.
func vecCvtInt(to, from ptx.Type) Fn {
	if from.IsSigned() {
		return func(d, a, b, c *[32]uint64, mask uint64) {
			if mask == fullWarp {
				for l := range d {
					d[l] = sem.Truncate(uint64(sem.SignExtend(a[l], from)), to)
				}
				return
			}
			for m := mask; m != 0; m &= m - 1 {
				l := bits.TrailingZeros64(m)
				d[l] = sem.Truncate(uint64(sem.SignExtend(a[l], from)), to)
			}
		}
	}
	return func(d, a, b, c *[32]uint64, mask uint64) {
		if mask == fullWarp {
			for l := range d {
				d[l] = sem.Truncate(sem.Truncate(a[l], from), to)
			}
			return
		}
		for m := mask; m != 0; m &= m - 1 {
			l := bits.TrailingZeros64(m)
			d[l] = sem.Truncate(sem.Truncate(a[l], from), to)
		}
	}
}

// vecInt32 hand-specializes 32-bit integer ops. Each body is sem's aluInt
// formula with Truncate/SignExtend constant-folded at 32 bits; nil means "no
// specialization, use the generic path".
func vecInt32(op ptx.Opcode, signed bool) Fn {
	const m32 = uint64(0xffffffff)
	switch op {
	case ptx.OpAdd:
		return func(d, a, b, c *[32]uint64, mask uint64) {
			if mask == fullWarp {
				for l := range d {
					d[l] = (a[l] + b[l]) & m32
				}
				return
			}
			for m := mask; m != 0; m &= m - 1 {
				l := bits.TrailingZeros64(m)
				d[l] = (a[l] + b[l]) & m32
			}
		}
	case ptx.OpSub:
		return func(d, a, b, c *[32]uint64, mask uint64) {
			for m := mask; m != 0; m &= m - 1 {
				l := bits.TrailingZeros64(m)
				d[l] = (a[l] - b[l]) & m32
			}
		}
	case ptx.OpMul:
		return func(d, a, b, c *[32]uint64, mask uint64) {
			if mask == fullWarp {
				for l := range d {
					d[l] = (a[l] * b[l]) & m32
				}
				return
			}
			for m := mask; m != 0; m &= m - 1 {
				l := bits.TrailingZeros64(m)
				d[l] = (a[l] * b[l]) & m32
			}
		}
	case ptx.OpMad:
		return func(d, a, b, c *[32]uint64, mask uint64) {
			for m := mask; m != 0; m &= m - 1 {
				l := bits.TrailingZeros64(m)
				d[l] = (a[l]*b[l] + c[l]) & m32
			}
		}
	case ptx.OpDiv:
		if signed {
			return func(d, a, b, c *[32]uint64, mask uint64) {
				for m := mask; m != 0; m &= m - 1 {
					l := bits.TrailingZeros64(m)
					if b[l]&m32 == 0 {
						d[l] = m32
						continue
					}
					d[l] = uint64(int64(int32(a[l]))/int64(int32(b[l]))) & m32
				}
			}
		}
		return func(d, a, b, c *[32]uint64, mask uint64) {
			for m := mask; m != 0; m &= m - 1 {
				l := bits.TrailingZeros64(m)
				if b[l]&m32 == 0 {
					d[l] = m32
					continue
				}
				d[l] = (a[l] & m32) / (b[l] & m32)
			}
		}
	case ptx.OpRem:
		if signed {
			return func(d, a, b, c *[32]uint64, mask uint64) {
				for m := mask; m != 0; m &= m - 1 {
					l := bits.TrailingZeros64(m)
					if b[l]&m32 == 0 {
						d[l] = m32
						continue
					}
					d[l] = uint64(int64(int32(a[l]))%int64(int32(b[l]))) & m32
				}
			}
		}
		return func(d, a, b, c *[32]uint64, mask uint64) {
			for m := mask; m != 0; m &= m - 1 {
				l := bits.TrailingZeros64(m)
				if b[l]&m32 == 0 {
					d[l] = m32
					continue
				}
				d[l] = (a[l] & m32) % (b[l] & m32)
			}
		}
	case ptx.OpMin:
		if signed {
			return func(d, a, b, c *[32]uint64, mask uint64) {
				for m := mask; m != 0; m &= m - 1 {
					l := bits.TrailingZeros64(m)
					if int32(a[l]) < int32(b[l]) {
						d[l] = a[l] & m32
					} else {
						d[l] = b[l] & m32
					}
				}
			}
		}
		return func(d, a, b, c *[32]uint64, mask uint64) {
			for m := mask; m != 0; m &= m - 1 {
				l := bits.TrailingZeros64(m)
				d[l] = min(a[l]&m32, b[l]&m32)
			}
		}
	case ptx.OpMax:
		if signed {
			return func(d, a, b, c *[32]uint64, mask uint64) {
				for m := mask; m != 0; m &= m - 1 {
					l := bits.TrailingZeros64(m)
					if int32(a[l]) > int32(b[l]) {
						d[l] = a[l] & m32
					} else {
						d[l] = b[l] & m32
					}
				}
			}
		}
		return func(d, a, b, c *[32]uint64, mask uint64) {
			for m := mask; m != 0; m &= m - 1 {
				l := bits.TrailingZeros64(m)
				d[l] = max(a[l]&m32, b[l]&m32)
			}
		}
	case ptx.OpAbs:
		if signed {
			return func(d, a, b, c *[32]uint64, mask uint64) {
				for m := mask; m != 0; m &= m - 1 {
					l := bits.TrailingZeros64(m)
					if int32(a[l]) < 0 {
						d[l] = (-a[l]) & m32
					} else {
						d[l] = a[l] & m32
					}
				}
			}
		}
		return func(d, a, b, c *[32]uint64, mask uint64) {
			for m := mask; m != 0; m &= m - 1 {
				l := bits.TrailingZeros64(m)
				d[l] = a[l] & m32
			}
		}
	case ptx.OpNeg:
		return func(d, a, b, c *[32]uint64, mask uint64) {
			for m := mask; m != 0; m &= m - 1 {
				l := bits.TrailingZeros64(m)
				d[l] = (-a[l]) & m32
			}
		}
	case ptx.OpAnd:
		return func(d, a, b, c *[32]uint64, mask uint64) {
			if mask == fullWarp {
				for l := range d {
					d[l] = (a[l] & b[l]) & m32
				}
				return
			}
			for m := mask; m != 0; m &= m - 1 {
				l := bits.TrailingZeros64(m)
				d[l] = (a[l] & b[l]) & m32
			}
		}
	case ptx.OpOr:
		return func(d, a, b, c *[32]uint64, mask uint64) {
			for m := mask; m != 0; m &= m - 1 {
				l := bits.TrailingZeros64(m)
				d[l] = (a[l] | b[l]) & m32
			}
		}
	case ptx.OpXor:
		return func(d, a, b, c *[32]uint64, mask uint64) {
			for m := mask; m != 0; m &= m - 1 {
				l := bits.TrailingZeros64(m)
				d[l] = (a[l] ^ b[l]) & m32
			}
		}
	case ptx.OpNot:
		return func(d, a, b, c *[32]uint64, mask uint64) {
			for m := mask; m != 0; m &= m - 1 {
				l := bits.TrailingZeros64(m)
				d[l] = ^a[l] & m32
			}
		}
	case ptx.OpShl:
		return func(d, a, b, c *[32]uint64, mask uint64) {
			if mask == fullWarp {
				for l := range d {
					d[l] = (a[l] << min(b[l]&m32, 32)) & m32
				}
				return
			}
			for m := mask; m != 0; m &= m - 1 {
				l := bits.TrailingZeros64(m)
				d[l] = (a[l] << min(b[l]&m32, 32)) & m32
			}
		}
	case ptx.OpShr:
		if signed {
			return func(d, a, b, c *[32]uint64, mask uint64) {
				if mask == fullWarp {
					for l := range d {
						d[l] = uint64(int64(int32(a[l]))>>min(b[l]&m32, 32)) & m32
					}
					return
				}
				for m := mask; m != 0; m &= m - 1 {
					l := bits.TrailingZeros64(m)
					d[l] = uint64(int64(int32(a[l]))>>min(b[l]&m32, 32)) & m32
				}
			}
		}
		return func(d, a, b, c *[32]uint64, mask uint64) {
			if mask == fullWarp {
				for l := range d {
					d[l] = (a[l] & m32) >> min(b[l]&m32, 32)
				}
				return
			}
			for m := mask; m != 0; m &= m - 1 {
				l := bits.TrailingZeros64(m)
				d[l] = (a[l] & m32) >> min(b[l]&m32, 32)
			}
		}
	case ptx.OpMov:
		return func(d, a, b, c *[32]uint64, mask uint64) {
			for m := mask; m != 0; m &= m - 1 {
				l := bits.TrailingZeros64(m)
				d[l] = a[l] & m32
			}
		}
	}
	return nil
}

// vecF32 hand-specializes f32 ops. Each body is the exact expression from
// sem's aluFloat — same operations in the same order — so results stay
// bit-identical with sem.ALU. min/max/abs round
// through float64 like sem does (harmless for these ops, but kept verbatim).
func vecF32(op ptx.Opcode) Fn {
	switch op {
	case ptx.OpAdd:
		return func(d, a, b, c *[32]uint64, mask uint64) {
			if mask == fullWarp {
				for l := range d {
					d[l] = sem.ArithF32Bits(sem.BitsF32(a[l]) + sem.BitsF32(b[l]))
				}
				return
			}
			for m := mask; m != 0; m &= m - 1 {
				l := bits.TrailingZeros64(m)
				d[l] = sem.ArithF32Bits(sem.BitsF32(a[l]) + sem.BitsF32(b[l]))
			}
		}
	case ptx.OpSub:
		return func(d, a, b, c *[32]uint64, mask uint64) {
			for m := mask; m != 0; m &= m - 1 {
				l := bits.TrailingZeros64(m)
				d[l] = sem.ArithF32Bits(sem.BitsF32(a[l]) - sem.BitsF32(b[l]))
			}
		}
	case ptx.OpMul:
		return func(d, a, b, c *[32]uint64, mask uint64) {
			if mask == fullWarp {
				for l := range d {
					d[l] = sem.ArithF32Bits(sem.BitsF32(a[l]) * sem.BitsF32(b[l]))
				}
				return
			}
			for m := mask; m != 0; m &= m - 1 {
				l := bits.TrailingZeros64(m)
				d[l] = sem.ArithF32Bits(sem.BitsF32(a[l]) * sem.BitsF32(b[l]))
			}
		}
	case ptx.OpMad:
		return func(d, a, b, c *[32]uint64, mask uint64) {
			if mask == fullWarp {
				for l := range d {
					d[l] = sem.ArithF32Bits(sem.BitsF32(a[l])*sem.BitsF32(b[l]) + sem.BitsF32(c[l]))
				}
				return
			}
			for m := mask; m != 0; m &= m - 1 {
				l := bits.TrailingZeros64(m)
				d[l] = sem.ArithF32Bits(sem.BitsF32(a[l])*sem.BitsF32(b[l]) + sem.BitsF32(c[l]))
			}
		}
	case ptx.OpDiv:
		return func(d, a, b, c *[32]uint64, mask uint64) {
			for m := mask; m != 0; m &= m - 1 {
				l := bits.TrailingZeros64(m)
				d[l] = sem.ArithF32Bits(sem.BitsF32(a[l]) / sem.BitsF32(b[l]))
			}
		}
	case ptx.OpMin:
		return func(d, a, b, c *[32]uint64, mask uint64) {
			for m := mask; m != 0; m &= m - 1 {
				l := bits.TrailingZeros64(m)
				d[l] = sem.F32Bits(float32(math.Min(float64(sem.BitsF32(a[l])), float64(sem.BitsF32(b[l])))))
			}
		}
	case ptx.OpMax:
		return func(d, a, b, c *[32]uint64, mask uint64) {
			for m := mask; m != 0; m &= m - 1 {
				l := bits.TrailingZeros64(m)
				d[l] = sem.F32Bits(float32(math.Max(float64(sem.BitsF32(a[l])), float64(sem.BitsF32(b[l])))))
			}
		}
	case ptx.OpAbs:
		return func(d, a, b, c *[32]uint64, mask uint64) {
			for m := mask; m != 0; m &= m - 1 {
				l := bits.TrailingZeros64(m)
				d[l] = sem.F32Bits(float32(math.Abs(float64(sem.BitsF32(a[l])))))
			}
		}
	case ptx.OpNeg:
		return func(d, a, b, c *[32]uint64, mask uint64) {
			for m := mask; m != 0; m &= m - 1 {
				l := bits.TrailingZeros64(m)
				d[l] = sem.F32Bits(-sem.BitsF32(a[l]))
			}
		}
	case ptx.OpMov:
		return func(d, a, b, c *[32]uint64, mask uint64) {
			for m := mask; m != 0; m &= m - 1 {
				l := bits.TrailingZeros64(m)
				d[l] = sem.F32Bits(sem.BitsF32(a[l]))
			}
		}
	case ptx.OpRcp:
		return func(d, a, b, c *[32]uint64, mask uint64) {
			for m := mask; m != 0; m &= m - 1 {
				l := bits.TrailingZeros64(m)
				d[l] = sem.F32Bits(1 / sem.BitsF32(a[l]))
			}
		}
	case ptx.OpSqrt:
		return func(d, a, b, c *[32]uint64, mask uint64) {
			for m := mask; m != 0; m &= m - 1 {
				l := bits.TrailingZeros64(m)
				d[l] = sem.F32Bits(float32(math.Sqrt(float64(sem.BitsF32(a[l])))))
			}
		}
	case ptx.OpRsqrt:
		return func(d, a, b, c *[32]uint64, mask uint64) {
			for m := mask; m != 0; m &= m - 1 {
				l := bits.TrailingZeros64(m)
				d[l] = sem.F32Bits(float32(1 / math.Sqrt(float64(sem.BitsF32(a[l])))))
			}
		}
	}
	return nil
}

// vecF64 hand-specializes f64 ops, mirroring sem's aluFloat f64 arm.
func vecF64(op ptx.Opcode) Fn {
	switch op {
	case ptx.OpAdd:
		return func(d, a, b, c *[32]uint64, mask uint64) {
			for m := mask; m != 0; m &= m - 1 {
				l := bits.TrailingZeros64(m)
				d[l] = sem.ArithF64Bits(sem.BitsF64(a[l]) + sem.BitsF64(b[l]))
			}
		}
	case ptx.OpSub:
		return func(d, a, b, c *[32]uint64, mask uint64) {
			for m := mask; m != 0; m &= m - 1 {
				l := bits.TrailingZeros64(m)
				d[l] = sem.ArithF64Bits(sem.BitsF64(a[l]) - sem.BitsF64(b[l]))
			}
		}
	case ptx.OpMul:
		return func(d, a, b, c *[32]uint64, mask uint64) {
			for m := mask; m != 0; m &= m - 1 {
				l := bits.TrailingZeros64(m)
				d[l] = sem.ArithF64Bits(sem.BitsF64(a[l]) * sem.BitsF64(b[l]))
			}
		}
	case ptx.OpMad:
		return func(d, a, b, c *[32]uint64, mask uint64) {
			for m := mask; m != 0; m &= m - 1 {
				l := bits.TrailingZeros64(m)
				d[l] = sem.ArithF64Bits(sem.BitsF64(a[l])*sem.BitsF64(b[l]) + sem.BitsF64(c[l]))
			}
		}
	case ptx.OpDiv:
		return func(d, a, b, c *[32]uint64, mask uint64) {
			for m := mask; m != 0; m &= m - 1 {
				l := bits.TrailingZeros64(m)
				d[l] = sem.ArithF64Bits(sem.BitsF64(a[l]) / sem.BitsF64(b[l]))
			}
		}
	case ptx.OpMin:
		return func(d, a, b, c *[32]uint64, mask uint64) {
			for m := mask; m != 0; m &= m - 1 {
				l := bits.TrailingZeros64(m)
				d[l] = sem.F64Bits(math.Min(sem.BitsF64(a[l]), sem.BitsF64(b[l])))
			}
		}
	case ptx.OpMax:
		return func(d, a, b, c *[32]uint64, mask uint64) {
			for m := mask; m != 0; m &= m - 1 {
				l := bits.TrailingZeros64(m)
				d[l] = sem.F64Bits(math.Max(sem.BitsF64(a[l]), sem.BitsF64(b[l])))
			}
		}
	case ptx.OpAbs:
		return func(d, a, b, c *[32]uint64, mask uint64) {
			for m := mask; m != 0; m &= m - 1 {
				l := bits.TrailingZeros64(m)
				d[l] = sem.F64Bits(math.Abs(sem.BitsF64(a[l])))
			}
		}
	case ptx.OpNeg:
		return func(d, a, b, c *[32]uint64, mask uint64) {
			for m := mask; m != 0; m &= m - 1 {
				l := bits.TrailingZeros64(m)
				d[l] = sem.F64Bits(-sem.BitsF64(a[l]))
			}
		}
	case ptx.OpMov:
		return func(d, a, b, c *[32]uint64, mask uint64) {
			for m := mask; m != 0; m &= m - 1 {
				l := bits.TrailingZeros64(m)
				d[l] = a[l]
			}
		}
	case ptx.OpRcp:
		return func(d, a, b, c *[32]uint64, mask uint64) {
			for m := mask; m != 0; m &= m - 1 {
				l := bits.TrailingZeros64(m)
				d[l] = sem.F64Bits(1 / sem.BitsF64(a[l]))
			}
		}
	case ptx.OpSqrt:
		return func(d, a, b, c *[32]uint64, mask uint64) {
			for m := mask; m != 0; m &= m - 1 {
				l := bits.TrailingZeros64(m)
				d[l] = sem.F64Bits(math.Sqrt(sem.BitsF64(a[l])))
			}
		}
	}
	return nil
}

// vecInt64 hand-specializes 64-bit integer ops (Truncate at 64 bits is the
// identity).
func vecInt64(op ptx.Opcode, signed bool) Fn {
	switch op {
	case ptx.OpAdd:
		return func(d, a, b, c *[32]uint64, mask uint64) {
			for m := mask; m != 0; m &= m - 1 {
				l := bits.TrailingZeros64(m)
				d[l] = a[l] + b[l]
			}
		}
	case ptx.OpSub:
		return func(d, a, b, c *[32]uint64, mask uint64) {
			for m := mask; m != 0; m &= m - 1 {
				l := bits.TrailingZeros64(m)
				d[l] = a[l] - b[l]
			}
		}
	case ptx.OpMul:
		return func(d, a, b, c *[32]uint64, mask uint64) {
			for m := mask; m != 0; m &= m - 1 {
				l := bits.TrailingZeros64(m)
				d[l] = a[l] * b[l]
			}
		}
	case ptx.OpMad:
		return func(d, a, b, c *[32]uint64, mask uint64) {
			for m := mask; m != 0; m &= m - 1 {
				l := bits.TrailingZeros64(m)
				d[l] = a[l]*b[l] + c[l]
			}
		}
	case ptx.OpDiv:
		if signed {
			return func(d, a, b, c *[32]uint64, mask uint64) {
				for m := mask; m != 0; m &= m - 1 {
					l := bits.TrailingZeros64(m)
					if b[l] == 0 {
						d[l] = ^uint64(0)
						continue
					}
					d[l] = uint64(int64(a[l]) / int64(b[l]))
				}
			}
		}
		return func(d, a, b, c *[32]uint64, mask uint64) {
			for m := mask; m != 0; m &= m - 1 {
				l := bits.TrailingZeros64(m)
				if b[l] == 0 {
					d[l] = ^uint64(0)
					continue
				}
				d[l] = a[l] / b[l]
			}
		}
	case ptx.OpRem:
		if signed {
			return func(d, a, b, c *[32]uint64, mask uint64) {
				for m := mask; m != 0; m &= m - 1 {
					l := bits.TrailingZeros64(m)
					if b[l] == 0 {
						d[l] = ^uint64(0)
						continue
					}
					d[l] = uint64(int64(a[l]) % int64(b[l]))
				}
			}
		}
		return func(d, a, b, c *[32]uint64, mask uint64) {
			for m := mask; m != 0; m &= m - 1 {
				l := bits.TrailingZeros64(m)
				if b[l] == 0 {
					d[l] = ^uint64(0)
					continue
				}
				d[l] = a[l] % b[l]
			}
		}
	case ptx.OpMin:
		if signed {
			return func(d, a, b, c *[32]uint64, mask uint64) {
				for m := mask; m != 0; m &= m - 1 {
					l := bits.TrailingZeros64(m)
					if int64(a[l]) < int64(b[l]) {
						d[l] = a[l]
					} else {
						d[l] = b[l]
					}
				}
			}
		}
		return func(d, a, b, c *[32]uint64, mask uint64) {
			for m := mask; m != 0; m &= m - 1 {
				l := bits.TrailingZeros64(m)
				d[l] = min(a[l], b[l])
			}
		}
	case ptx.OpMax:
		if signed {
			return func(d, a, b, c *[32]uint64, mask uint64) {
				for m := mask; m != 0; m &= m - 1 {
					l := bits.TrailingZeros64(m)
					if int64(a[l]) > int64(b[l]) {
						d[l] = a[l]
					} else {
						d[l] = b[l]
					}
				}
			}
		}
		return func(d, a, b, c *[32]uint64, mask uint64) {
			for m := mask; m != 0; m &= m - 1 {
				l := bits.TrailingZeros64(m)
				d[l] = max(a[l], b[l])
			}
		}
	case ptx.OpAbs:
		if signed {
			return func(d, a, b, c *[32]uint64, mask uint64) {
				for m := mask; m != 0; m &= m - 1 {
					l := bits.TrailingZeros64(m)
					if int64(a[l]) < 0 {
						d[l] = -a[l]
					} else {
						d[l] = a[l]
					}
				}
			}
		}
		return func(d, a, b, c *[32]uint64, mask uint64) {
			for m := mask; m != 0; m &= m - 1 {
				l := bits.TrailingZeros64(m)
				d[l] = a[l]
			}
		}
	case ptx.OpNeg:
		return func(d, a, b, c *[32]uint64, mask uint64) {
			for m := mask; m != 0; m &= m - 1 {
				l := bits.TrailingZeros64(m)
				d[l] = -a[l]
			}
		}
	case ptx.OpAnd:
		return func(d, a, b, c *[32]uint64, mask uint64) {
			for m := mask; m != 0; m &= m - 1 {
				l := bits.TrailingZeros64(m)
				d[l] = a[l] & b[l]
			}
		}
	case ptx.OpOr:
		return func(d, a, b, c *[32]uint64, mask uint64) {
			for m := mask; m != 0; m &= m - 1 {
				l := bits.TrailingZeros64(m)
				d[l] = a[l] | b[l]
			}
		}
	case ptx.OpXor:
		return func(d, a, b, c *[32]uint64, mask uint64) {
			for m := mask; m != 0; m &= m - 1 {
				l := bits.TrailingZeros64(m)
				d[l] = a[l] ^ b[l]
			}
		}
	case ptx.OpNot:
		return func(d, a, b, c *[32]uint64, mask uint64) {
			for m := mask; m != 0; m &= m - 1 {
				l := bits.TrailingZeros64(m)
				d[l] = ^a[l]
			}
		}
	case ptx.OpShl:
		return func(d, a, b, c *[32]uint64, mask uint64) {
			for m := mask; m != 0; m &= m - 1 {
				l := bits.TrailingZeros64(m)
				d[l] = a[l] << min(b[l]&0xffffffff, 64)
			}
		}
	case ptx.OpShr:
		if signed {
			return func(d, a, b, c *[32]uint64, mask uint64) {
				for m := mask; m != 0; m &= m - 1 {
					l := bits.TrailingZeros64(m)
					d[l] = uint64(int64(a[l]) >> min(b[l]&0xffffffff, 64))
				}
			}
		}
		return func(d, a, b, c *[32]uint64, mask uint64) {
			for m := mask; m != 0; m &= m - 1 {
				l := bits.TrailingZeros64(m)
				d[l] = a[l] >> min(b[l]&0xffffffff, 64)
			}
		}
	case ptx.OpMov:
		return func(d, a, b, c *[32]uint64, mask uint64) {
			for m := mask; m != 0; m &= m - 1 {
				l := bits.TrailingZeros64(m)
				d[l] = a[l]
			}
		}
	}
	return nil
}
