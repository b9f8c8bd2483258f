package vec

import (
	"math"
	"math/bits"
	"sync"

	"crat/internal/ptx"
	"crat/internal/sem"
)

// A Fn applies one ALU-class Op to a whole warp at once: d, a, b, c
// are 32-lane register planes (unused sources point at zeroPlane) and mask
// selects the executing lanes. The kernels below are internal/sem's
// formulas written out over a warp, bit for bit: one integer family for
// every width (integer setp included), and the f32 ops the benchmark
// workloads execute. Every other op (the remaining float ops, f64, float
// setp, cvt with a float endpoint) calls sem itself per lane, so a
// formula nobody runs has exactly one definition. The bodies spell their lane loops out rather than sharing an
// iterator helper: an indirect call per lane would cost more than the
// arithmetic it wraps.
type Fn func(d, a, b, c *[32]uint64, mask uint64)

// fullWarp is the mask of a warp whose 32 lanes all execute. The kernels
// most frequent in both engines' profiles test for it and run a plain lane
// loop instead of scanning the mask bit by bit.
const fullWarp = 1<<32 - 1

// zeroPlane backs absent source slots: reads yield 0, the value sem's
// formulas take for a missing operand.
var zeroPlane [32]uint64

// fnKey names one kernel: setp also reads cmp and cvt also reads from;
// the other ops leave both zero, and selp, which ignores its type, leaves
// t zero too.
type fnKey struct {
	op      ptx.Opcode
	t, from ptx.Type
	cmp     ptx.CmpOp
}

// fnTable holds every kernel lowering can ask for — each (op, type) sem's
// ALU accepts, each setp comparison and each cvt pair over the type
// lattice — built once per process on first use, so lowering a kernel
// allocates no closures and concurrent lowerings share one read-only map.
var fnTable = sync.OnceValue(func() map[fnKey]Fn {
	tab := map[fnKey]Fn{{op: ptx.OpSelp}: vecSelp}
	for t := ptx.TypeNone; t <= ptx.Pred; t++ {
		for op := ptx.OpNop; op <= ptx.OpEx2; op++ {
			switch op {
			case ptx.OpSetp:
				for cmp := ptx.CmpEq; cmp <= ptx.CmpGe; cmp++ {
					k := fnKey{op: op, t: t, cmp: cmp}
					tab[k] = newFn(k)
				}
			case ptx.OpCvt:
				for from := ptx.TypeNone; from <= ptx.Pred; from++ {
					k := fnKey{op: op, t: t, from: from}
					tab[k] = newFn(k)
				}
			default:
				if _, err := sem.ALU(op, t, 0, 0, 0); err == nil {
					k := fnKey{op: op, t: t}
					tab[k] = newFn(k)
				}
			}
		}
	}
	return tab
})

// fnFor selects the evaluation kernel for an ALU-class instruction. The
// instruction is statically supported (ClassBad ops never reach here), so
// sem calls inside the returned functions cannot fail. A key outside the
// table (a type past the lattice) gets a kernel of its own.
func fnFor(in *ptx.Inst) Fn {
	k := fnKey{op: in.Op, t: in.Type}
	switch in.Op {
	case ptx.OpSetp:
		k.cmp = in.Cmp
	case ptx.OpCvt:
		k.from = in.CvtFrom
	case ptx.OpSelp:
		k.t = ptx.TypeNone
	}
	if fn, ok := fnTable()[k]; ok {
		return fn
	}
	return newFn(k)
}

// newFn builds the kernel for k.
func newFn(k fnKey) Fn {
	switch k.op {
	case ptx.OpSetp:
		return vecSetp(k.cmp, k.t)
	case ptx.OpSelp:
		return vecSelp
	case ptx.OpCvt:
		if !k.t.IsFloat() && !k.from.IsFloat() {
			return vecCvtInt(k.t, k.from)
		}
		return vecCvtSem(k.t, k.from)
	}
	if fn := specialized(k.op, k.t); fn != nil {
		return fn
	}
	return vecGeneric(k.op, k.t)
}

// specialized returns the hand-written kernel of op at t, or nil when op
// runs through vecGeneric.
func specialized(op ptx.Opcode, t ptx.Type) Fn {
	switch {
	case t.IsInt():
		return vecInt(op, t)
	case t == ptx.F32:
		return vecF32(op)
	}
	return nil
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

// vecSetp evaluates a predicate-producing comparison. Integer types get a
// typed kernel (vecSetpInt); the rest call sem.Compare per lane.
func vecSetp(cmp ptx.CmpOp, t ptx.Type) Fn {
	if t.IsInt() {
		if fn := vecSetpInt(cmp, t); fn != nil {
			return fn
		}
	}
	return func(d, a, b, c *[32]uint64, mask uint64) {
		if mask == fullWarp {
			for l := range d {
				ok, _ := sem.Compare(cmp, t, a[l], b[l])
				d[l] = b2u(ok)
			}
			return
		}
		for m := mask; m != 0; m &= m - 1 {
			l := bits.TrailingZeros64(m)
			ok, _ := sem.Compare(cmp, t, a[l], b[l])
			d[l] = b2u(ok)
		}
	}
}

// vecSetpInt is sem.Compare on an integer type written out over a warp:
// both operands are truncated to the type's width w and, for a signed
// type, have the sign bit f flipped, so that unsigned order is the type's
// order (as vecInt's min and max). Every ordering is x < y on swapped
// and/or negated operands: gt is y < x, le is !(y < x), ge is !(x < y);
// ne is !(x == y). nil means a comparison sem does not define.
func vecSetpInt(cmp ptx.CmpOp, t ptx.Type) Fn {
	w, sh := widthOf(t)
	var f uint64
	if t.IsSigned() {
		f = 1 << (63 - sh)
	}
	var swap bool
	var neg uint64
	switch cmp {
	case ptx.CmpEq, ptx.CmpLt:
	case ptx.CmpNe, ptx.CmpGe:
		neg = 1
	case ptx.CmpGt:
		swap = true
	case ptx.CmpLe:
		swap, neg = true, 1
	default:
		return nil
	}
	if cmp == ptx.CmpEq || cmp == ptx.CmpNe {
		return func(d, a, b, c *[32]uint64, mask uint64) {
			if mask == fullWarp {
				for l := range d {
					d[l] = b2u(a[l]&w == b[l]&w) ^ neg
				}
				return
			}
			for m := mask; m != 0; m &= m - 1 {
				l := bits.TrailingZeros64(m)
				d[l] = b2u(a[l]&w == b[l]&w) ^ neg
			}
		}
	}
	return func(d, a, b, c *[32]uint64, mask uint64) {
		if swap {
			a, b = b, a
		}
		if mask == fullWarp {
			for l := range d {
				d[l] = b2u((a[l]&w)^f < (b[l]&w)^f) ^ neg
			}
			return
		}
		for m := mask; m != 0; m &= m - 1 {
			l := bits.TrailingZeros64(m)
			d[l] = b2u((a[l]&w)^f < (b[l]&w)^f) ^ neg
		}
	}
}

// b2u is a predicate's register value: 1 for true, 0 for false.
func b2u(ok bool) uint64 {
	if ok {
		return 1
	}
	return 0
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

// widthOf returns t's value mask w (sem.Truncate keeps v&w) and the shift
// sh that sign-extends from it: sext(v, sh) is sem.SignExtend(v, t).
func widthOf(t ptx.Type) (w uint64, sh uint) {
	w = sem.Truncate(^uint64(0), t)
	return w, uint(bits.LeadingZeros64(w))
}

// sext sign-extends the low 64-sh bits of v. sh is below 64, and saying
// so (sh&63) spares each shift the compiler's guard for wider counts.
func sext(v uint64, sh uint) int64 { return int64(v<<(sh&63)) >> (sh & 63) }

// vecCvtInt specializes integer-to-integer conversion: sign- or zero-extend
// at the source width, then truncate at the destination width (a
// zero-extension is a truncation at both widths).
func vecCvtInt(to, from ptx.Type) Fn {
	w, _ := widthOf(to)
	wFrom, sh := widthOf(from)
	if !from.IsSigned() {
		w, sh = w&wFrom, 0
	}
	return func(d, a, b, c *[32]uint64, mask uint64) {
		if mask == fullWarp {
			for l := range d {
				d[l] = uint64(sext(a[l], sh)) & w
			}
			return
		}
		for m := mask; m != 0; m &= m - 1 {
			l := bits.TrailingZeros64(m)
			d[l] = uint64(sext(a[l], sh)) & w
		}
	}
}

// vecInt specializes the integer ops at every width. Each body is sem's
// aluInt formula with Truncate as &w and SignExtend as sext(v, sh). min
// and max order signed values as unsigned ones with the sign bit f
// flipped, which needs no branch; div and rem test signed per lane (a
// branch that always goes one way); abs, and shr, which runs hot, pick
// their form here. Shift amounts clamp at the register width n as sem's
// shiftAmount does. nil means "no specialization, use the generic path".
func vecInt(op ptx.Opcode, t ptx.Type) Fn {
	w, sh := widthOf(t)
	n := uint64(64 - sh)
	signed := t.IsSigned()
	var f uint64 // the sign bit of a signed type
	if signed {
		f = 1 << (63 - sh)
	}
	switch op {
	case ptx.OpAdd:
		return func(d, a, b, c *[32]uint64, mask uint64) {
			if mask == fullWarp {
				for l := range d {
					d[l] = (a[l] + b[l]) & w
				}
				return
			}
			for m := mask; m != 0; m &= m - 1 {
				l := bits.TrailingZeros64(m)
				d[l] = (a[l] + b[l]) & w
			}
		}
	case ptx.OpSub:
		return func(d, a, b, c *[32]uint64, mask uint64) {
			for m := mask; m != 0; m &= m - 1 {
				l := bits.TrailingZeros64(m)
				d[l] = (a[l] - b[l]) & w
			}
		}
	case ptx.OpMul:
		return func(d, a, b, c *[32]uint64, mask uint64) {
			if mask == fullWarp {
				for l := range d {
					d[l] = (a[l] * b[l]) & w
				}
				return
			}
			for m := mask; m != 0; m &= m - 1 {
				l := bits.TrailingZeros64(m)
				d[l] = (a[l] * b[l]) & w
			}
		}
	case ptx.OpMad:
		return func(d, a, b, c *[32]uint64, mask uint64) {
			for m := mask; m != 0; m &= m - 1 {
				l := bits.TrailingZeros64(m)
				d[l] = (a[l]*b[l] + c[l]) & w
			}
		}
	case ptx.OpDiv, ptx.OpRem:
		rem := op == ptx.OpRem
		return func(d, a, b, c *[32]uint64, mask uint64) {
			for m := mask; m != 0; m &= m - 1 {
				l := bits.TrailingZeros64(m)
				x, y := a[l]&w, b[l]&w
				switch {
				case y == 0:
					d[l] = w
				case signed && rem:
					d[l] = uint64(sext(x, sh)%sext(y, sh)) & w
				case signed:
					d[l] = uint64(sext(x, sh)/sext(y, sh)) & w
				case rem:
					d[l] = x % y
				default:
					d[l] = x / y
				}
			}
		}
	case ptx.OpMin:
		return func(d, a, b, c *[32]uint64, mask uint64) {
			for m := mask; m != 0; m &= m - 1 {
				l := bits.TrailingZeros64(m)
				d[l] = min((a[l]&w)^f, (b[l]&w)^f) ^ f
			}
		}
	case ptx.OpMax:
		return func(d, a, b, c *[32]uint64, mask uint64) {
			for m := mask; m != 0; m &= m - 1 {
				l := bits.TrailingZeros64(m)
				d[l] = max((a[l]&w)^f, (b[l]&w)^f) ^ f
			}
		}
	case ptx.OpAbs:
		if !signed {
			return vecInt(ptx.OpMov, t)
		}
		return func(d, a, b, c *[32]uint64, mask uint64) {
			for m := mask; m != 0; m &= m - 1 {
				l := bits.TrailingZeros64(m)
				if sext(a[l], sh) < 0 {
					d[l] = -a[l] & w
				} else {
					d[l] = a[l] & w
				}
			}
		}
	case ptx.OpNeg:
		return func(d, a, b, c *[32]uint64, mask uint64) {
			for m := mask; m != 0; m &= m - 1 {
				l := bits.TrailingZeros64(m)
				d[l] = -a[l] & w
			}
		}
	case ptx.OpAnd:
		return func(d, a, b, c *[32]uint64, mask uint64) {
			if mask == fullWarp {
				for l := range d {
					d[l] = a[l] & b[l] & w
				}
				return
			}
			for m := mask; m != 0; m &= m - 1 {
				l := bits.TrailingZeros64(m)
				d[l] = a[l] & b[l] & w
			}
		}
	case ptx.OpOr:
		return func(d, a, b, c *[32]uint64, mask uint64) {
			for m := mask; m != 0; m &= m - 1 {
				l := bits.TrailingZeros64(m)
				d[l] = (a[l] | b[l]) & w
			}
		}
	case ptx.OpXor:
		return func(d, a, b, c *[32]uint64, mask uint64) {
			for m := mask; m != 0; m &= m - 1 {
				l := bits.TrailingZeros64(m)
				d[l] = (a[l] ^ b[l]) & w
			}
		}
	case ptx.OpNot:
		return func(d, a, b, c *[32]uint64, mask uint64) {
			for m := mask; m != 0; m &= m - 1 {
				l := bits.TrailingZeros64(m)
				d[l] = ^a[l] & w
			}
		}
	case ptx.OpShl:
		return func(d, a, b, c *[32]uint64, mask uint64) {
			if mask == fullWarp {
				for l := range d {
					d[l] = (a[l] << min(b[l]&0xffffffff, n)) & w
				}
				return
			}
			for m := mask; m != 0; m &= m - 1 {
				l := bits.TrailingZeros64(m)
				d[l] = (a[l] << min(b[l]&0xffffffff, n)) & w
			}
		}
	case ptx.OpShr:
		if signed {
			return func(d, a, b, c *[32]uint64, mask uint64) {
				if mask == fullWarp {
					for l := range d {
						d[l] = uint64(sext(a[l], sh)>>min(b[l]&0xffffffff, n)) & w
					}
					return
				}
				for m := mask; m != 0; m &= m - 1 {
					l := bits.TrailingZeros64(m)
					d[l] = uint64(sext(a[l], sh)>>min(b[l]&0xffffffff, n)) & w
				}
			}
		}
		return func(d, a, b, c *[32]uint64, mask uint64) {
			if mask == fullWarp {
				for l := range d {
					d[l] = (a[l] & w) >> min(b[l]&0xffffffff, n)
				}
				return
			}
			for m := mask; m != 0; m &= m - 1 {
				l := bits.TrailingZeros64(m)
				d[l] = (a[l] & w) >> min(b[l]&0xffffffff, n)
			}
		}
	case ptx.OpMov:
		return func(d, a, b, c *[32]uint64, mask uint64) {
			for m := mask; m != 0; m &= m - 1 {
				l := bits.TrailingZeros64(m)
				d[l] = a[l] & w
			}
		}
	}
	return nil
}

// vecF32 hand-specializes the f32 ops the benchmark workloads execute. Each
// body is the exact expression from sem's aluFloat — same operations in
// the same order — so results stay bit-identical with sem.ALU. min, max and
// sqrt round through float64 like sem does (harmless for these ops, but
// kept verbatim). nil means "no specialization, use the generic path".
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
	case ptx.OpMov:
		return func(d, a, b, c *[32]uint64, mask uint64) {
			for m := mask; m != 0; m &= m - 1 {
				l := bits.TrailingZeros64(m)
				d[l] = sem.F32Bits(sem.BitsF32(a[l]))
			}
		}
	case ptx.OpSqrt:
		return func(d, a, b, c *[32]uint64, mask uint64) {
			for m := mask; m != 0; m &= m - 1 {
				l := bits.TrailingZeros64(m)
				d[l] = sem.F32Bits(float32(math.Sqrt(float64(sem.BitsF32(a[l])))))
			}
		}
	}
	return nil
}
