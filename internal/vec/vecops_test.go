package vec

import (
	"testing"

	"crat/internal/ptx"
	"crat/internal/sem"
)

// Both engines evaluate every ALU op through these kernels, so these
// tests are what binds them to internal/sem: the kernels must agree with
// sem bit for bit on edge operands.

// intEdges: wraparound, division by zero, shift amounts past the register
// width, sign boundaries at every width, and high garbage bits.
var intEdges = []uint64{0, 1, 2, 7, 31, 32, 33, 63, 64, 70, 0x7f, 0x80, 0xff, 0x7fff, 0x8000, 0xffff,
	0x7fffffff, 0x80000000, 0xffffffff, 1 << 32, 1<<32 | 1, 1 << 63, ^uint64(0), 0x123456789abcdef}

// f32Edges: ±0, ±Inf, quiet, signalling and negative NaNs, the smallest
// and largest denormals, the smallest normal, the largest finite value,
// ±1, integer-conversion boundaries (±2^31, 2^32, 2^63, 2^64) and a value
// with garbage in the high word.
var f32Edges = []uint64{0, 0x80000000, 0x7f800000, 0xff800000, 0x7fc00000, 0x7f800001, 0xffc00001,
	1, 0x807fffff, 0x00800000, 0x7f7fffff, 0xff7fffff, 0x3f800000, 0xbf800000, 0x3f000000, 0xbfc00000,
	0x4f000000, 0xcf000000, 0x4f800000, 0x5f000000, 0x5f800000, 0xdf000000, 0xdeadbeef3f800000}

// f64Edges mirrors f32Edges at double precision.
var f64Edges = []uint64{0, 1 << 63, 0x7ff0000000000000, 0xfff0000000000000, 0x7ff8000000000000,
	0x7ff0000000000001, 0xfff8000000000001, 1, 0x800fffffffffffff, 0x0010000000000000,
	0x7fefffffffffffff, 0xffefffffffffffff, 0x3ff0000000000000, 0xbff0000000000000,
	0x3fe0000000000000, 0xbff8000000000000, 0x41e0000000000000, 0xc1e0000000000000,
	0x41f0000000000000, 0x43e0000000000000, 0x43f0000000000000, 0xc3e0000000000000}

var intTypes = []ptx.Type{ptx.U8, ptx.U16, ptx.U32, ptx.U64, ptx.S8, ptx.S16, ptx.S32, ptx.S64,
	ptx.B8, ptx.B16, ptx.B32, ptx.B64}

// edgesOf returns the edge operands for values of type t.
func edgesOf(t ptx.Type) []uint64 {
	switch t {
	case ptx.F32:
		return f32Edges
	case ptx.F64:
		return f64Edges
	}
	return intEdges
}

// sentinel pre-fills the destination plane: a kernel must leave every lane
// outside its mask holding it.
const sentinel = 0x5e5e5e5e5e5e5e5e

// checkPairs runs fn over every (a, b) pair of edges, 32 lanes per call
// with c cycling through the edges too, and compares each lane with want.
// Each batch runs under its prefix mask (the full warp for every batch but
// the last) and under every other lane of it, and the lanes outside the
// mask must keep the sentinel.
func checkPairs(t *testing.T, name string, fn Fn, edges []uint64, want func(a, b, c uint64) uint64) {
	t.Helper()
	var a, b, c [32]uint64
	n := 0
	for _, x := range edges {
		for _, y := range edges {
			l := n % 32
			a[l], b[l], c[l] = x, y, edges[n*7%len(edges)]
			n++
			if l != 31 && n != len(edges)*len(edges) {
				continue
			}
			prefix := ^uint64(0) >> (63 - l)
			for _, mask := range []uint64{prefix, prefix & 0x5555555555555555} {
				var d [32]uint64
				for i := range d {
					d[i] = sentinel
				}
				fn(&d, &a, &b, &c, mask)
				for i := range d {
					if mask>>i&1 == 0 {
						if d[i] != sentinel {
							t.Errorf("%s under mask %#x: lane %d outside the mask was written (%#x)", name, mask, i, d[i])
						}
					} else if w := want(a[i], b[i], c[i]); d[i] != w {
						t.Errorf("%s(%#x, %#x, %#x): vec %#x, sem %#x", name, a[i], b[i], c[i], d[i], w)
					}
				}
			}
		}
	}
}

// TestVecOpsMatchSem covers every ALU opcode sem supports at every integer
// and float type, on the integer and float edges.
func TestVecOpsMatchSem(t *testing.T) {
	types := append([]ptx.Type{ptx.F32, ptx.F64}, intTypes...)
	for _, ty := range types {
		for op := ptx.OpNop; op <= ptx.OpEx2; op++ {
			if op == ptx.OpSetp || op == ptx.OpSelp || op == ptx.OpCvt {
				continue // own tests below
			}
			if _, err := sem.ALU(op, ty, 0, 0, 0); err != nil {
				continue
			}
			checkPairs(t, op.String()+"."+ty.String(), fnFor(&ptx.Inst{Op: op, Type: ty}), edgesOf(ty),
				func(a, b, c uint64) uint64 {
					v, _ := sem.ALU(op, ty, a, b, c)
					return v
				})
		}
	}
}

// TestVecSetpMatchSem covers every comparison at the integer and float
// widths, NaN operands included.
func TestVecSetpMatchSem(t *testing.T) {
	for _, ty := range []ptx.Type{ptx.U32, ptx.S32, ptx.U64, ptx.S64, ptx.F32, ptx.F64} {
		for cmp := ptx.CmpEq; cmp <= ptx.CmpGe; cmp++ {
			checkPairs(t, "setp."+cmp.String()+"."+ty.String(), fnFor(&ptx.Inst{Op: ptx.OpSetp, Cmp: cmp, Type: ty}), edgesOf(ty),
				func(a, b, c uint64) uint64 {
					if ok, _ := sem.Compare(cmp, ty, a, b); ok {
						return 1
					}
					return 0
				})
		}
	}
}

// TestVecSetpIntMatchSem covers the typed integer setp kernels at every
// integer width and signedness, the 8- and 16-bit types included.
func TestVecSetpIntMatchSem(t *testing.T) {
	for _, ty := range intTypes {
		for cmp := ptx.CmpEq; cmp <= ptx.CmpGe; cmp++ {
			checkPairs(t, "setp."+cmp.String()+"."+ty.String(), vecSetpInt(cmp, ty), edgesOf(ty),
				func(a, b, c uint64) uint64 {
					if ok, _ := sem.Compare(cmp, ty, a, b); ok {
						return 1
					}
					return 0
				})
		}
	}
}

// TestVecCvtMatchSem covers cvt between every pair of integer types and
// between every integer type and f32/f64 in both directions (NaN, ±Inf and
// out-of-range values included), plus f32↔f64.
func TestVecCvtMatchSem(t *testing.T) {
	check := func(to, from ptx.Type) {
		checkPairs(t, "cvt."+to.String()+"."+from.String(), fnFor(&ptx.Inst{Op: ptx.OpCvt, Type: to, CvtFrom: from}), edgesOf(from),
			func(a, b, c uint64) uint64 {
				v, _ := sem.Convert(to, from, a)
				return v
			})
	}
	floats := []ptx.Type{ptx.F32, ptx.F64}
	for _, to := range intTypes {
		for _, from := range intTypes {
			check(to, from)
		}
		for _, f := range floats {
			check(to, f)
			check(f, to)
		}
	}
	for _, to := range floats {
		for _, from := range floats {
			check(to, from)
		}
	}
}

// TestVecSelp covers selp, which has no sem formula: a where the predicate
// plane c is non-zero, b elsewhere.
func TestVecSelp(t *testing.T) {
	checkPairs(t, "selp", fnFor(&ptx.Inst{Op: ptx.OpSelp, Type: ptx.U32}), intEdges,
		func(a, b, c uint64) uint64 {
			if c != 0 {
				return a
			}
			return b
		})
}
