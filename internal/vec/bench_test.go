package vec

import (
	"testing"

	"crat/internal/ptx"
	"crat/internal/sem"
)

// benchKernels is the (op, type) traffic the benchmark workloads run: the
// ALU ops of the Table-3 kernels, before and after allocation, and of the
// ptxgen kernels the service workloads compile.
var benchKernels = []ptx.Inst{
	{Op: ptx.OpMad, Type: ptx.F32}, {Op: ptx.OpAdd, Type: ptx.F32}, {Op: ptx.OpSub, Type: ptx.F32},
	{Op: ptx.OpMul, Type: ptx.F32}, {Op: ptx.OpMin, Type: ptx.F32}, {Op: ptx.OpMax, Type: ptx.F32},
	{Op: ptx.OpMov, Type: ptx.F32}, {Op: ptx.OpSqrt, Type: ptx.F32},
	{Op: ptx.OpAdd, Type: ptx.U32}, {Op: ptx.OpSub, Type: ptx.U32}, {Op: ptx.OpMul, Type: ptx.U32},
	{Op: ptx.OpMad, Type: ptx.U32}, {Op: ptx.OpDiv, Type: ptx.U32}, {Op: ptx.OpRem, Type: ptx.U32},
	{Op: ptx.OpMin, Type: ptx.U32}, {Op: ptx.OpMax, Type: ptx.U32}, {Op: ptx.OpAnd, Type: ptx.U32},
	{Op: ptx.OpOr, Type: ptx.U32}, {Op: ptx.OpXor, Type: ptx.U32}, {Op: ptx.OpShl, Type: ptx.U32},
	{Op: ptx.OpShr, Type: ptx.U32}, {Op: ptx.OpMov, Type: ptx.U32},
	{Op: ptx.OpAdd, Type: ptx.U64}, {Op: ptx.OpMul, Type: ptx.U64}, {Op: ptx.OpMov, Type: ptx.U64},
	{Op: ptx.OpCvt, Type: ptx.U64, CvtFrom: ptx.U32}, {Op: ptx.OpCvt, Type: ptx.F32, CvtFrom: ptx.U32},
	{Op: ptx.OpCvt, Type: ptx.U32, CvtFrom: ptx.F32},
	{Op: ptx.OpSetp, Type: ptx.U32, Cmp: ptx.CmpLt}, {Op: ptx.OpSetp, Type: ptx.U32, Cmp: ptx.CmpEq},
	{Op: ptx.OpSetp, Type: ptx.U32, Cmp: ptx.CmpGe}, {Op: ptx.OpSetp, Type: ptx.F32, Cmp: ptx.CmpGt},
	{Op: ptx.OpSelp, Type: ptx.U32},
}

// BenchmarkVecKernels times one warp-wide call of each kernel of the
// workloads' traffic, with all 32 lanes executing and with half of them.
func BenchmarkVecKernels(b *testing.B) {
	for i := range benchKernels {
		in := &benchKernels[i]
		name := in.Op.String() + "." + in.Type.String()
		switch in.Op {
		case ptx.OpCvt:
			name += "." + in.CvtFrom.String()
		case ptx.OpSetp:
			name = "setp." + in.Cmp.String() + "." + in.Type.String()
		}
		src := in.Type
		if in.Op == ptx.OpCvt {
			src = in.CvtFrom
		}
		// Operands in range for every op: non-zero divisors, positive
		// square roots, shift amounts below the width; the predicate
		// plane alternates.
		var d, x, y, z [32]uint64
		for l := range x {
			if src == ptx.F32 {
				x[l] = sem.F32Bits(float32(l) + 1.5)
				y[l] = sem.F32Bits(float32(32-l) * 0.25)
				z[l] = sem.F32Bits(float32(l) - 7)
			} else {
				x[l] = uint64(l)*0x9e3779b9 + 12345
				y[l] = uint64(l%13) + 1
				z[l] = uint64(l & 1)
			}
		}
		fn := fnFor(in)
		for _, m := range []struct {
			name string
			mask uint64
		}{{"full", fullWarp}, {"half", 0xffff}} {
			b.Run(name+"/"+m.name, func(b *testing.B) {
				for range b.N {
					fn(&d, &x, &y, &z, m.mask)
				}
			})
		}
	}
}
