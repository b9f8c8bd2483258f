package gpusim

import (
	"testing"

	"crat/internal/passes"
	"crat/internal/ptx"
	"crat/internal/sem"
)

// TestVecOpsMatchSem: the hand-specialized warp kernels must agree with
// internal/sem bit for bit on edge operands (wraparound, division by zero,
// shift amounts past the register width, high garbage bits), so both
// execution engines keep one arithmetic definition.
func TestVecOpsMatchSem(t *testing.T) {
	edges := []uint64{0, 1, 2, 7, 31, 32, 33, 63, 64, 70, 0x7fffffff, 0x80000000, 0xffffffff,
		1 << 32, 1<<32 | 1, 1 << 63, ^uint64(0), 0x123456789abcdef}
	var a, b, c [32]uint64
	ops := []ptx.Opcode{ptx.OpAdd, ptx.OpSub, ptx.OpMul, ptx.OpMad, ptx.OpDiv, ptx.OpRem, ptx.OpMin, ptx.OpMax,
		ptx.OpAbs, ptx.OpNeg, ptx.OpAnd, ptx.OpOr, ptx.OpXor, ptx.OpNot, ptx.OpShl, ptx.OpShr, ptx.OpMov}
	for _, ty := range []ptx.Type{ptx.U32, ptx.S32, ptx.B32, ptx.U64, ptx.S64, ptx.B64} {
		for _, op := range ops {
			if _, err := sem.ALU(op, ty, 0, 0, 0); err != nil {
				continue
			}
			fn := vecFnFor(&passes.MicroOp{Op: op, Type: ty})
			// Every (a, b) edge pair, 32 lanes per call; c cycles through
			// the edges too.
			n := 0
			for _, x := range edges {
				for _, y := range edges {
					l := n % 32
					a[l], b[l], c[l] = x, y, edges[n*7%len(edges)]
					n++
					if l != 31 && n != len(edges)*len(edges) {
						continue
					}
					var d [32]uint64
					fn(&d, &a, &b, &c, ^uint64(0)>>(63-l))
					for i := 0; i <= l; i++ {
						want, _ := sem.ALU(op, ty, a[i], b[i], c[i])
						if d[i] != want {
							t.Errorf("%v.%v(%#x, %#x, %#x): vec %#x, sem %#x", op, ty, a[i], b[i], c[i], d[i], want)
						}
					}
				}
			}
		}
	}
}
