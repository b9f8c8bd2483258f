package gpusim

import (
	"math"
	"strings"
	"testing"
	"testing/quick"

	"crat/internal/ptx"
	"crat/internal/sem"
)

func TestAluIntSemantics(t *testing.T) {
	f := func(a, b uint32) bool {
		checks := []struct {
			op   ptx.Opcode
			want uint32
		}{
			{ptx.OpAdd, a + b},
			{ptx.OpSub, a - b},
			{ptx.OpMul, a * b},
			{ptx.OpAnd, a & b},
			{ptx.OpOr, a | b},
			{ptx.OpXor, a ^ b},
		}
		for _, c := range checks {
			got, err := sem.ALU(c.op, ptx.U32, uint64(a), uint64(b), 0)
			if err != nil || uint32(got) != c.want {
				return false
			}
		}
		// mad: a*b+c with c = a.
		got, err := sem.ALU(ptx.OpMad, ptx.U32, uint64(a), uint64(b), uint64(a))
		return err == nil && uint32(got) == a*b+a
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestAluSignedSemantics(t *testing.T) {
	f := func(a, b int32) bool {
		ua, ub := uint64(uint32(a)), uint64(uint32(b))
		if b != 0 {
			got, err := sem.ALU(ptx.OpDiv, ptx.S32, ua, ub, 0)
			if err != nil || int32(got) != a/b {
				// Go traps INT_MIN/-1; hardware wraps. Skip that case.
				if !(a == math.MinInt32 && b == -1) {
					return false
				}
			}
			got, err = sem.ALU(ptx.OpRem, ptx.S32, ua, ub, 0)
			if err != nil || int32(got) != a%b {
				if !(a == math.MinInt32 && b == -1) {
					return false
				}
			}
		}
		gotMin, _ := sem.ALU(ptx.OpMin, ptx.S32, ua, ub, 0)
		gotMax, _ := sem.ALU(ptx.OpMax, ptx.S32, ua, ub, 0)
		wantMin, wantMax := a, b
		if b < a {
			wantMin, wantMax = b, a
		}
		if int32(gotMin) != wantMin || int32(gotMax) != wantMax {
			return false
		}
		gotAbs, _ := sem.ALU(ptx.OpAbs, ptx.S32, ua, 0, 0)
		wantAbs := a
		if a < 0 {
			wantAbs = -a
		}
		gotNeg, _ := sem.ALU(ptx.OpNeg, ptx.S32, ua, 0, 0)
		return int32(gotAbs) == wantAbs && int32(gotNeg) == -a
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestAluDivByZero(t *testing.T) {
	got, err := sem.ALU(ptx.OpDiv, ptx.U32, 42, 0, 0)
	if err != nil || uint32(got) != ^uint32(0) {
		t.Errorf("u32 div-by-zero = %x, %v; want all-ones", got, err)
	}
	got, err = sem.ALU(ptx.OpRem, ptx.S32, 42, 0, 0)
	if err != nil || uint32(got) != ^uint32(0) {
		t.Errorf("s32 rem-by-zero = %x, %v; want all-ones", got, err)
	}
}

func TestAluShifts(t *testing.T) {
	got, _ := sem.ALU(ptx.OpShl, ptx.U32, 1, 31, 0)
	if uint32(got) != 1<<31 {
		t.Errorf("shl = %x", got)
	}
	got, _ = sem.ALU(ptx.OpShr, ptx.U32, 0x80000000, 31, 0)
	if uint32(got) != 1 {
		t.Errorf("u32 shr = %x", got)
	}
	got, _ = sem.ALU(ptx.OpShr, ptx.S32, 0x80000000, 31, 0)
	if int32(got) != -1 {
		t.Errorf("s32 shr (arithmetic) = %x", got)
	}
}

func TestAluFloatSemantics(t *testing.T) {
	f := func(a, b float32) bool {
		ua, ub := sem.F32Bits(a), sem.F32Bits(b)
		checks := []struct {
			op   ptx.Opcode
			want float32
		}{
			{ptx.OpAdd, a + b},
			{ptx.OpSub, a - b},
			{ptx.OpMul, a * b},
			{ptx.OpDiv, a / b},
		}
		for _, c := range checks {
			got, err := sem.ALU(c.op, ptx.F32, ua, ub, 0)
			if err != nil {
				return false
			}
			g := sem.BitsF32(got)
			if g != c.want && !(math.IsNaN(float64(g)) && math.IsNaN(float64(c.want))) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestAluFloat64Semantics(t *testing.T) {
	f := func(a, b float64) bool {
		got, err := sem.ALU(ptx.OpMad, ptx.F64, sem.F64Bits(a), sem.F64Bits(b), sem.F64Bits(1.5))
		if err != nil {
			return false
		}
		want := a*b + 1.5
		g := sem.BitsF64(got)
		return g == want || (math.IsNaN(g) && math.IsNaN(want))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestSFUSemantics(t *testing.T) {
	cases := []struct {
		op   ptx.Opcode
		in   float32
		want float32
	}{
		{ptx.OpSqrt, 16, 4},
		{ptx.OpRcp, 4, 0.25},
		{ptx.OpRsqrt, 4, 0.5},
		{ptx.OpEx2, 3, 8},
		{ptx.OpLg2, 8, 3},
	}
	for _, c := range cases {
		got, err := sem.ALU(c.op, ptx.F32, sem.F32Bits(c.in), 0, 0)
		if err != nil {
			t.Fatalf("%v: %v", c.op, err)
		}
		if g := sem.BitsF32(got); math.Abs(float64(g-c.want)) > 1e-6 {
			t.Errorf("%v(%v) = %v, want %v", c.op, c.in, g, c.want)
		}
	}
}

func TestCompareSemantics(t *testing.T) {
	f := func(a, b int32) bool {
		ua, ub := uint64(uint32(a)), uint64(uint32(b))
		for _, c := range []struct {
			cmp  ptx.CmpOp
			want bool
		}{
			{ptx.CmpEq, a == b}, {ptx.CmpNe, a != b},
			{ptx.CmpLt, a < b}, {ptx.CmpLe, a <= b},
			{ptx.CmpGt, a > b}, {ptx.CmpGe, a >= b},
		} {
			got, err := sem.Compare(c.cmp, ptx.S32, ua, ub)
			if err != nil || got != c.want {
				return false
			}
		}
		// Unsigned comparison differs for mixed signs.
		got, err := sem.Compare(ptx.CmpLt, ptx.U32, ua, ub)
		return err == nil && got == (uint32(a) < uint32(b))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestCompareFloat(t *testing.T) {
	nan := sem.F32Bits(float32(math.NaN()))
	one := sem.F32Bits(1)
	// NaN is unordered: all ordered comparisons false, Ne true.
	for _, cmp := range []ptx.CmpOp{ptx.CmpEq, ptx.CmpLt, ptx.CmpLe, ptx.CmpGt, ptx.CmpGe} {
		got, err := sem.Compare(cmp, ptx.F32, nan, one)
		if err != nil || got {
			t.Errorf("%v(NaN,1) = %v, want false", cmp, got)
		}
	}
	if got, _ := sem.Compare(ptx.CmpNe, ptx.F32, nan, one); !got {
		t.Error("Ne(NaN,1) should be true")
	}
}

func TestConvertSemantics(t *testing.T) {
	f := func(v int32) bool {
		// s32 -> f32 -> s32 round trip (exact for 24-bit values).
		small := v % (1 << 23)
		fbits, err := sem.Convert(ptx.F32, ptx.S32, uint64(uint32(small)))
		if err != nil {
			return false
		}
		back, err := sem.Convert(ptx.S32, ptx.F32, fbits)
		if err != nil {
			return false
		}
		if int32(back) != small {
			return false
		}
		// Widening: s32 -> s64 sign extends.
		wide, err := sem.Convert(ptx.S64, ptx.S32, uint64(uint32(v)))
		if err != nil || int64(wide) != int64(v) {
			return false
		}
		// Zero extension: u32 -> u64.
		uw, err := sem.Convert(ptx.U64, ptx.U32, uint64(uint32(v)))
		return err == nil && uw == uint64(uint32(v))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestConvertFloatWidths(t *testing.T) {
	b, err := sem.Convert(ptx.F64, ptx.F32, sem.F32Bits(1.5))
	if err != nil || sem.BitsF64(b) != 1.5 {
		t.Errorf("f32->f64: %v %v", sem.BitsF64(b), err)
	}
	b, err = sem.Convert(ptx.F32, ptx.F64, sem.F64Bits(2.25))
	if err != nil || sem.BitsF32(b) != 2.25 {
		t.Errorf("f64->f32: %v %v", sem.BitsF32(b), err)
	}
	// Negative float to unsigned clamps at zero.
	b, err = sem.Convert(ptx.U32, ptx.F32, sem.F32Bits(-5))
	if err != nil || b != 0 {
		t.Errorf("negative f32->u32 = %d, want 0", b)
	}
}

func TestTruncateAndSignExtend(t *testing.T) {
	if sem.Truncate(0x1ff, ptx.U8) != 0xff {
		t.Error("truncate u8")
	}
	if sem.Truncate(0x12345, ptx.U16) != 0x2345 {
		t.Error("truncate u16")
	}
	if sem.SignExtend(0xff, ptx.S8) != -1 {
		t.Error("sign extend s8")
	}
	if sem.SignExtend(0x8000, ptx.S16) != -32768 {
		t.Error("sign extend s16")
	}
	if sem.SignExtend(0x7fff, ptx.S16) != 32767 {
		t.Error("sign extend s16 positive")
	}
}

func TestImmBits(t *testing.T) {
	if sem.ImmBits(ptx.Imm(-1), ptx.U32) != 0xffffffff {
		t.Error("negative imm at u32")
	}
	if sem.BitsF32(sem.ImmBits(ptx.FImm(1.5), ptx.F32)) != 1.5 {
		t.Error("f32 imm")
	}
	if sem.BitsF64(sem.ImmBits(ptx.FImm(1.5), ptx.F64)) != 1.5 {
		t.Error("f64 imm")
	}
	// Integer immediates feeding float ops convert to float.
	if sem.BitsF32(sem.ImmBits(ptx.Imm(3), ptx.F32)) != 3.0 {
		t.Error("int imm at f32")
	}
}

func TestSelpAndGuardedExecution(t *testing.T) {
	// selp picks per-thread; a guarded store writes only where the guard
	// holds.
	b := ptx.NewBuilder("selp")
	b.Param("out", ptx.U64)
	po := b.Reg(ptx.U64)
	b.LdParam(ptx.U64, po, "out")
	tid := b.Reg(ptx.U32)
	b.MovSpec(tid, ptx.SpecTidX)
	p := b.Reg(ptx.Pred)
	b.Setp(ptx.CmpLt, ptx.U32, p, ptx.R(tid), ptx.Imm(8))
	v := b.Reg(ptx.U32)
	b.Selp(ptx.U32, v, ptx.Imm(100), ptx.Imm(200), p)
	oA := b.AddrOf(po, tid, 4)
	q := b.Reg(ptx.Pred)
	b.Setp(ptx.CmpLt, ptx.U32, q, ptx.R(tid), ptx.Imm(16))
	b.If(q, false).St(ptx.SpaceGlobal, ptx.U32, ptx.MemReg(oA, 0), ptx.R(v))
	b.Exit()

	mem := NewMemory()
	out := mem.Alloc(4 * 32)
	sim, err := NewSimulator(FermiConfig(), mem, Launch{
		Kernel: b.Kernel(), Grid: 1, Block: 32, Params: []uint64{out},
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sim.Run(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 32; i++ {
		got := mem.ReadUint32(out + uint64(4*i))
		var want uint32
		switch {
		case i < 8:
			want = 100
		case i < 16:
			want = 200
		default:
			want = 0 // guarded store skipped
		}
		if got != want {
			t.Errorf("out[%d] = %d, want %d", i, got, want)
		}
	}
}

func TestF64Kernel(t *testing.T) {
	// End-to-end f64 arithmetic: out[i] = sqrt(x[i]) * 2.5.
	b := ptx.NewBuilder("dbl")
	b.Param("x", ptx.U64).Param("out", ptx.U64)
	px, po := b.Reg(ptx.U64), b.Reg(ptx.U64)
	b.LdParam(ptx.U64, px, "x").LdParam(ptx.U64, po, "out")
	tid := b.Reg(ptx.U32)
	b.MovSpec(tid, ptx.SpecTidX)
	xa := b.AddrOf(px, tid, 8)
	oa := b.AddrOf(po, tid, 8)
	v := b.Reg(ptx.F64)
	b.Ld(ptx.SpaceGlobal, ptx.F64, v, ptx.MemReg(xa, 0))
	b.Sfu(ptx.OpSqrt, ptx.F64, v, ptx.R(v))
	b.Mul(ptx.F64, v, ptx.R(v), ptx.FImm(2.5))
	b.St(ptx.SpaceGlobal, ptx.F64, ptx.MemReg(oa, 0), ptx.R(v))
	b.Exit()

	mem := NewMemory()
	x := mem.Alloc(8 * 32)
	out := mem.Alloc(8 * 32)
	for i := 0; i < 32; i++ {
		mem.WriteFloat64(x+uint64(8*i), float64(i*i))
	}
	sim, err := NewSimulator(FermiConfig(), mem, Launch{
		Kernel: b.Kernel(), Grid: 1, Block: 32, Params: []uint64{x, out},
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sim.Run(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 32; i++ {
		want := float64(i) * 2.5
		if got := mem.ReadFloat64(out + uint64(8*i)); math.Abs(got-want) > 1e-9 {
			t.Errorf("out[%d] = %v, want %v", i, got, want)
		}
	}
}

func TestBypassLoadSkipsL1(t *testing.T) {
	// Two identical streaming kernels, one with ld.global.cg: the bypassed
	// variant must leave no footprint in L1 and still compute correctly.
	build := func(bypass bool) *ptx.Kernel {
		b := ptx.NewBuilder("stream")
		b.Param("data", ptx.U64).Param("out", ptx.U64)
		pd, po := b.Reg(ptx.U64), b.Reg(ptx.U64)
		b.LdParam(ptx.U64, pd, "data").LdParam(ptx.U64, po, "out")
		tid := b.Reg(ptx.U32)
		b.MovSpec(tid, ptx.SpecTidX)
		da := b.AddrOf(pd, tid, 4)
		oa := b.AddrOf(po, tid, 4)
		v := b.Reg(ptx.U32)
		b.Emit(ptx.Inst{Op: ptx.OpLd, Space: ptx.SpaceGlobal, Type: ptx.U32,
			Dst: ptx.R(v), Srcs: []ptx.Operand{ptx.MemReg(da, 0)},
			Guard: ptx.NoReg, Bypass: bypass})
		b.Add(ptx.U32, v, ptx.R(v), ptx.Imm(7))
		b.St(ptx.SpaceGlobal, ptx.U32, ptx.MemReg(oa, 0), ptx.R(v))
		b.Exit()
		return b.Kernel()
	}
	run := func(bypass bool) (Stats, uint32) {
		mem := NewMemory()
		data := mem.Alloc(4 * 64)
		out := mem.Alloc(4 * 64)
		for i := 0; i < 64; i++ {
			mem.WriteUint32(data+uint64(4*i), uint32(i*3))
		}
		sim, err := NewSimulator(FermiConfig(), mem, Launch{
			Kernel: build(bypass), Grid: 1, Block: 64, Params: []uint64{data, out},
		})
		if err != nil {
			t.Fatal(err)
		}
		st, err := sim.Run()
		if err != nil {
			t.Fatal(err)
		}
		return st, mem.ReadUint32(out + 4*5)
	}
	normal, v1 := run(false)
	bypassed, v2 := run(true)
	if v1 != 22 || v2 != 22 {
		t.Fatalf("wrong results: %d %d, want 22", v1, v2)
	}
	if bypassed.L1Accesses >= normal.L1Accesses {
		t.Errorf("bypass did not reduce L1 accesses: %d vs %d", bypassed.L1Accesses, normal.L1Accesses)
	}
	if bypassed.BypassLoads == 0 {
		t.Error("no bypass loads recorded")
	}
	// The .cg suffix must round-trip through the text form.
	src := ptx.Print(build(true))
	if !strings.Contains(src, "ld.global.cg.u32") {
		t.Errorf("printer missing .cg:\n%s", src)
	}
	k2, err := ptx.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for i := range k2.Insts {
		if k2.Insts[i].Bypass {
			found = true
		}
	}
	if !found {
		t.Error("parser dropped the .cg bypass flag")
	}
}

// TestSeenSetResets checks that planFor's de-duplication set forgets every
// key on reset, including when the generation counter wraps, and holds a
// full plan's worth of keys that share their low bits (line addresses).
func TestSeenSetResets(t *testing.T) {
	var s seenSet
	for _, gen := range []uint32{0, ^uint32(0)} {
		s.gen = gen
		s.reset()
		for i := uint64(0); i < 64; i++ {
			if !s.add(i * 128) {
				t.Fatalf("gen %d: key %d reported present in an empty set", gen, i*128)
			}
		}
		for i := uint64(0); i < 64; i++ {
			if s.add(i * 128) {
				t.Fatalf("gen %d: key %d reported absent after its insertion", gen, i*128)
			}
		}
	}
}
