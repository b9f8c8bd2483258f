package sem

import (
	"bytes"
	"fmt"
	"math"
	"testing"

	"crat/internal/ptx"
)

var intTypes = []ptx.Type{ptx.U8, ptx.S8, ptx.U16, ptx.S16, ptx.U32, ptx.S32, ptx.U64, ptx.S64}

// intLimits returns, for integer type t, the all-ones pattern (-1 when
// signed), the top-bit pattern (MinInt when signed) and the largest value.
func intLimits(t ptx.Type) (ones, top, maxv uint64) {
	w := t.Bits()
	ones = ^uint64(0) >> (64 - w)
	top = 1 << (w - 1)
	maxv = ones
	if t.IsSigned() {
		maxv = top - 1
	}
	return ones, top, maxv
}

type aluCase struct {
	name    string
	op      ptx.Opcode
	a, b, c uint64
	want    uint64
}

// intALUCases builds the integer edge rows for one type.
func intALUCases(t ptx.Type) []aluCase {
	w := uint64(t.Bits())
	ones, top, _ := intLimits(t)
	signed := t.IsSigned()
	pick := func(s, u uint64) uint64 {
		if signed {
			return s
		}
		return u
	}
	return []aluCase{
		{"add wraps", ptx.OpAdd, ones, 1, 0, 0},
		{"sub wraps", ptx.OpSub, 0, 1, 0, ones},
		{"mul wraps", ptx.OpMul, top, 2, 0, 0},
		{"mad wraps", ptx.OpMad, top, 2, ones, ones},
		{"div by zero is all-ones", ptx.OpDiv, 5, 0, 0, ones},
		{"rem by zero is all-ones", ptx.OpRem, 5, 0, 0, ones},
		{"div top by all-ones", ptx.OpDiv, top, ones, 0, pick(top, 0)},
		{"rem top by all-ones", ptx.OpRem, top, ones, 0, pick(0, top)},
		{"div rounds toward zero", ptx.OpDiv, ones - 6, 2, 0, pick(ones-2, (ones-6)/2)},
		{"min", ptx.OpMin, top, 1, 0, pick(top, 1)},
		{"max", ptx.OpMax, top, 1, 0, pick(1, top)},
		{"neg of top", ptx.OpNeg, top, 0, 0, top},
		{"abs of -1", ptx.OpAbs, ones, 0, 0, pick(1, ones)},
		{"shl by 0", ptx.OpShl, 1, 0, 0, 1},
		{"shl by width-1", ptx.OpShl, 1, w - 1, 0, top},
		{"shl by width", ptx.OpShl, 1, w, 0, 0},
		{"shl by 70", ptx.OpShl, 1, 70, 0, 0},
		{"shl by 2^32-1", ptx.OpShl, 1, 1<<32 - 1, 0, 0},
		{"shl reads the amount as u32", ptx.OpShl, 1, 1<<32 | 1, 0, 2},
		{"shr by 0", ptx.OpShr, top, 0, 0, top},
		{"shr by width-1", ptx.OpShr, top, w - 1, 0, pick(ones, 1)},
		{"shr by width", ptx.OpShr, top, w, 0, pick(ones, 0)},
		{"shr by 70", ptx.OpShr, top, 70, 0, pick(ones, 0)},
		{"shr by 2^32-1", ptx.OpShr, top, 1<<32 - 1, 0, pick(ones, 0)},
		{"shr of a positive value by width", ptx.OpShr, top - 1, w, 0, 0},
	}
}

func TestIntALU(t *testing.T) {
	for _, ty := range intTypes {
		for _, tc := range intALUCases(ty) {
			t.Run(fmt.Sprintf("%v/%s", ty, tc.name), func(t *testing.T) {
				got, err := ALU(tc.op, ty, tc.a, tc.b, tc.c)
				if err != nil {
					t.Fatal(err)
				}
				if got != tc.want {
					t.Errorf("%v.%v(%#x, %#x, %#x) = %#x, want %#x", tc.op, ty, tc.a, tc.b, tc.c, got, tc.want)
				}
			})
		}
	}
}

func TestFloatALU(t *testing.T) {
	inf, nan := math.Inf(1), math.NaN()
	for _, ty := range []ptx.Type{ptx.F32, ptx.F64} {
		bits := func(f float64) uint64 {
			if ty == ptx.F32 {
				return F32Bits(float32(f))
			}
			return F64Bits(f)
		}
		val := func(b uint64) float64 {
			if ty == ptx.F32 {
				return float64(BitsF32(b))
			}
			return BitsF64(b)
		}
		big := 1e300 // squares past the type's range
		if ty == ptx.F32 {
			big = 1e30
		}
		for _, tc := range []struct {
			name    string
			op      ptx.Opcode
			a, b, c float64
			want    float64
		}{
			{"add", ptx.OpAdd, 1.5, 2.25, 0, 3.75},
			{"mad", ptx.OpMad, 2, 3, 0.5, 6.5},
			{"mul overflows to inf", ptx.OpMul, big, big, 0, inf},
			{"div by zero", ptx.OpDiv, 1, 0, 0, inf},
			{"div by negative zero", ptx.OpDiv, 1, math.Copysign(0, -1), 0, -inf},
			{"zero by zero", ptx.OpDiv, 0, 0, 0, nan},
			{"inf minus inf", ptx.OpSub, inf, inf, 0, nan},
			{"neg", ptx.OpNeg, 2, 0, 0, -2},
			{"abs", ptx.OpAbs, -inf, 0, 0, inf},
			{"rcp of zero", ptx.OpRcp, 0, 0, 0, inf},
			{"sqrt of negative", ptx.OpSqrt, -1, 0, 0, nan},
		} {
			t.Run(fmt.Sprintf("%v/%s", ty, tc.name), func(t *testing.T) {
				got, err := ALU(tc.op, ty, bits(tc.a), bits(tc.b), bits(tc.c))
				if err != nil {
					t.Fatal(err)
				}
				g := val(got)
				if math.IsNaN(tc.want) && math.IsNaN(g) {
					return
				}
				if g != tc.want {
					t.Errorf("%v.%v(%v, %v, %v) = %v, want %v", tc.op, ty, tc.a, tc.b, tc.c, g, tc.want)
				}
			})
		}
	}
}

var cmpOps = []ptx.CmpOp{ptx.CmpEq, ptx.CmpNe, ptx.CmpLt, ptx.CmpLe, ptx.CmpGt, ptx.CmpGe}

func TestCompareInt(t *testing.T) {
	for _, ty := range intTypes {
		ones, top, _ := intLimits(ty)
		// top vs 1: below when signed (MinInt), above when unsigned.
		lt := ty.IsSigned()
		for _, tc := range []struct {
			name string
			a, b uint64
			// want per cmpOps order: Eq Ne Lt Le Gt Ge
			want [6]bool
		}{
			{"top vs 1", top, 1, [6]bool{false, true, lt, lt, !lt, !lt}},
			{"equal", 7, 7, [6]bool{true, false, false, true, false, true}},
			{"high input bits ignored", ones, ^uint64(0), [6]bool{true, false, false, true, false, true}},
		} {
			for i, cmp := range cmpOps {
				got, err := Compare(cmp, ty, tc.a, tc.b)
				if err != nil {
					t.Fatal(err)
				}
				if got != tc.want[i] {
					t.Errorf("setp.%v.%v(%#x, %#x) [%s] = %v, want %v", cmp, ty, tc.a, tc.b, tc.name, got, tc.want[i])
				}
			}
		}
	}
}

func TestCompareNaN(t *testing.T) {
	for _, ty := range []ptx.Type{ptx.F32, ptx.F64} {
		nan, one := F64Bits(math.NaN()), F64Bits(1)
		if ty == ptx.F32 {
			nan, one = F32Bits(float32(math.NaN())), F32Bits(1)
		}
		for _, pair := range [][2]uint64{{nan, one}, {one, nan}, {nan, nan}} {
			for _, cmp := range cmpOps {
				got, err := Compare(cmp, ty, pair[0], pair[1])
				if err != nil {
					t.Fatal(err)
				}
				if want := cmp == ptx.CmpNe; got != want {
					t.Errorf("setp.%v.%v(%#x, %#x) = %v, want %v", cmp, ty, pair[0], pair[1], got, want)
				}
			}
		}
	}
}

func TestConvertInt(t *testing.T) {
	for _, tc := range []struct {
		to, from ptx.Type
		v, want  uint64
	}{
		{ptx.S32, ptx.S8, 0x80, 0xffffff80},
		{ptx.U32, ptx.S8, 0x80, 0xffffff80},
		{ptx.S32, ptx.U8, 0x80, 0x80},
		{ptx.S64, ptx.S32, 0x80000000, 0xffffffff80000000},
		{ptx.S64, ptx.S16, 0xffff, ^uint64(0)},
		{ptx.U64, ptx.U32, 0xffffffff, 0xffffffff},
		{ptx.S16, ptx.S64, 0x12345, 0x2345},
		{ptx.U8, ptx.S32, 0x1ff, 0xff},
		{ptx.S32, ptx.S8, 0x17f, 0x7f}, // the source reads only its low 8 bits
	} {
		got, err := Convert(tc.to, tc.from, tc.v)
		if err != nil {
			t.Fatal(err)
		}
		if got != tc.want {
			t.Errorf("cvt.%v.%v(%#x) = %#x, want %#x", tc.to, tc.from, tc.v, got, tc.want)
		}
	}
}

// TestConvertFloatToInt: float-to-integer cvt truncates toward zero,
// saturates to the destination range, and maps NaN to 0.
func TestConvertFloatToInt(t *testing.T) {
	inf := math.Inf(1)
	for _, from := range []ptx.Type{ptx.F32, ptx.F64} {
		bits := func(f float64) uint64 {
			if from == ptx.F32 {
				return F32Bits(float32(f))
			}
			return F64Bits(f)
		}
		for _, to := range intTypes {
			ones, top, maxv := intLimits(to)
			minv, minusOne := uint64(0), uint64(0)
			if to.IsSigned() {
				minv, minusOne = top, ones
			}
			for _, tc := range []struct {
				name string
				f    float64
				want uint64
			}{
				{"+inf", inf, maxv},
				{"-inf", -inf, minv},
				{"nan", math.NaN(), 0},
				{"1e30", 1e30, maxv},
				{"-1e30", -1e30, minv},
				{"1.9", 1.9, 1},
				{"-1.9", -1.9, minusOne},
				{"-0.5", -0.5, 0},
				{"max+1", float64(maxv) + 1, maxv},
			} {
				got, err := Convert(to, from, bits(tc.f))
				if err != nil {
					t.Fatal(err)
				}
				if got != tc.want {
					t.Errorf("cvt.%v.%v(%s) = %#x, want %#x", to, from, tc.name, got, tc.want)
				}
			}
		}
	}
}

func TestConvertToFloat(t *testing.T) {
	for _, tc := range []struct {
		to, from ptx.Type
		v        uint64
		want     float64
	}{
		{ptx.F32, ptx.S32, 0x80000000, -(1 << 31)},
		{ptx.F64, ptx.U32, 0x80000000, 1 << 31},
		{ptx.F64, ptx.S8, 0xff, -1},
		{ptx.F64, ptx.U64, ^uint64(0), 1 << 64},
		{ptx.F32, ptx.F64, F64Bits(1e300), math.Inf(1)},
		{ptx.F64, ptx.F32, F32Bits(-2.5), -2.5},
	} {
		got, err := Convert(tc.to, tc.from, tc.v)
		if err != nil {
			t.Fatal(err)
		}
		g := BitsF64(got)
		if tc.to == ptx.F32 {
			g = float64(BitsF32(got))
		}
		if g != tc.want {
			t.Errorf("cvt.%v.%v(%#x) = %v, want %v", tc.to, tc.from, tc.v, g, tc.want)
		}
	}
	nan, err := Convert(ptx.F64, ptx.F32, F32Bits(float32(math.NaN())))
	if err != nil {
		t.Fatal(err)
	}
	if !math.IsNaN(BitsF64(nan)) {
		t.Errorf("cvt.f64.f32(NaN) = %v, want NaN", BitsF64(nan))
	}
}

// TestDiffFirst pins DiffFirst's contract: an absent page equals an
// all-zero page, a difference anywhere in a page (its last byte included)
// is found, the lowest differing address wins, and the answer does not
// depend on the order pages were created in. The rows build their images
// with WriteBytes, some of whose runs cross page boundaries: one long run
// must store exactly what the same bytes written piecewise store.
func TestDiffFirst(t *testing.T) {
	const p0, p1, p2 = 0x10000, 0x30000, 0x50000 // three distinct pages
	type write struct {
		addr uint64
		v    byte
		n    int // bytes written, each v (0 = 1)
	}
	rows := []struct {
		name         string
		a, b         []write
		wantOK       bool
		wantAddr     uint64
		wantA, wantB byte
	}{
		{name: "absent page equals zero page", a: []write{{p1 + 5, 0, 0}}},
		{name: "both empty"},
		{name: "last byte of a page", a: []write{{p1 + PageSize - 1, 7, 0}}, b: []write{{p1, 0, 0}},
			wantOK: true, wantAddr: p1 + PageSize - 1, wantA: 7},
		{name: "absent on one side", b: []write{{p2 + 9, 3, 0}},
			wantOK: true, wantAddr: p2 + 9, wantB: 3},
		{name: "lowest of two differing pages", a: []write{{p2 + 1, 1, 0}, {p0 + 100, 2, 0}}, b: []write{{p2 + 1, 9, 0}, {p0 + 100, 4, 0}},
			wantOK: true, wantAddr: p0 + 100, wantA: 2, wantB: 4},
		{name: "lowest address within a page", a: []write{{p1 + 40, 1, 0}, {p1 + 30, 1, 0}},
			wantOK: true, wantAddr: p1 + 30, wantA: 1},
		{name: "write straddling a page boundary", a: []write{{p2 - 3, 5, 2*PageSize + 6}},
			b:      []write{{p2 - 3, 5, 2*PageSize + 5}},
			wantOK: true, wantAddr: p2 + 2*PageSize + 2, wantA: 5},
		{name: "equal writes across pages", a: []write{{p1 - 1, 8, PageSize + 2}},
			b: []write{{p1 - 1, 8, 1}, {p1, 8, PageSize}, {p1 + PageSize, 8, 1}}},
	}
	build := func(ws []write, reverse bool) *Memory {
		m := NewMemory()
		for i := range ws {
			w := ws[i]
			if reverse {
				w = ws[len(ws)-1-i]
			}
			m.WriteBytes(w.addr, bytes.Repeat([]byte{w.v}, max(w.n, 1)))
		}
		return m
	}
	for _, row := range rows {
		for _, reverse := range []bool{false, true} {
			a, b := build(row.a, reverse), build(row.b, !reverse)
			addr, va, vb, ok := a.DiffFirst(b)
			if ok != row.wantOK || addr != row.wantAddr || va != row.wantA || vb != row.wantB {
				t.Errorf("%s (reverse=%v): got (%#x, %d, %d, %v), want (%#x, %d, %d, %v)",
					row.name, reverse, addr, va, vb, ok, row.wantAddr, row.wantA, row.wantB, row.wantOK)
			}
			if a.Equal(b) == ok {
				t.Errorf("%s (reverse=%v): Equal disagrees with DiffFirst", row.name, reverse)
			}
		}
	}
}

// TestArithNaNIsCanonical: a NaN result of a multi-operand arithmetic op
// is the canonical NaN whatever the input payloads and their order, so no
// result depends on which operand the compiled code happened to put first.
func TestArithNaNIsCanonical(t *testing.T) {
	rows := []struct {
		ty     ptx.Type
		n1, n2 uint64 // NaNs with distinct payloads and signs
		one    uint64
		canon  uint64
	}{
		{ptx.F32, 0x7fc00001, 0xffc00002, F32Bits(1), CanonNaN32},
		{ptx.F64, 0x7ff8000000000001, 0xfff8000000000002, F64Bits(1), CanonNaN64},
	}
	for _, r := range rows {
		for _, op := range []ptx.Opcode{ptx.OpAdd, ptx.OpSub, ptx.OpMul, ptx.OpMad, ptx.OpDiv} {
			for _, in := range [][3]uint64{{r.n1, r.n2, r.n1}, {r.n2, r.n1, r.n2}, {r.n1, r.one, r.one}, {r.one, r.n2, r.one}} {
				if got, _ := ALU(op, r.ty, in[0], in[1], in[2]); got != r.canon {
					t.Errorf("%v.%v(%#x, %#x, %#x) = %#x, want canonical %#x", op, r.ty, in[0], in[1], in[2], got, r.canon)
				}
			}
		}
	}
}
