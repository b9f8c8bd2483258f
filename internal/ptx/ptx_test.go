package ptx

import (
	"strings"
	"testing"
	"testing/quick"
)

// paperListing2 is the native PTX kernel of paper Listing 2 (thread
// identifier computation in SSA style, five virtual registers).
const paperListing2 = `
.visible .entry kernel(
	.param .u64 output
)
{
	.reg .u32 %r<5>;

	mov.u32 %r0, %tid.x;
	mov.u32 %r1, %ctaid.x;
	mov.u32 %r2, %ntid.x;
	mul.lo.u32 %r3, %r2, %r1;
	add.u32 %r4, %r0, %r3;
	exit;
}
`

// paperListing4 is the spilled kernel of paper Listing 4 (SpillStack in
// local memory, 64-bit addressing register).
const paperListing4 = `
.visible .entry kernel(
	.param .u64 output
)
{
	.reg .u64 %d<1>;
	.reg .u32 %r<2>;
	.local .align 4 .b8 SpillStack[4];

	mov.u32 %r0, %tid.x;
	mov.u32 %r1, %ctaid.x;
	mov.u64 %d0, SpillStack;
	st.local.u32 [%d0], %r0;
	mov.u32 %r0, %ntid.x;
	mul.lo.u32 %r1, %r1, %r0;
	ld.local.u32 %r1, [%d0];
	add.u32 %r0, %r0, %r1;
	exit;
}
`

func TestParsePaperListing2(t *testing.T) {
	k, err := Parse(paperListing2)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	if k.Name != "kernel" {
		t.Errorf("name = %q, want kernel", k.Name)
	}
	if got := k.NumRegs(); got != 5 {
		t.Errorf("NumRegs = %d, want 5", got)
	}
	if got := len(k.Insts); got != 6 {
		t.Errorf("len(Insts) = %d, want 6", got)
	}
	if err := k.Validate(); err != nil {
		t.Errorf("Validate: %v", err)
	}
	mul := k.Insts[3]
	if mul.Op != OpMul || mul.Type != U32 {
		t.Errorf("inst 3 = %v %v, want mul.u32", mul.Op, mul.Type)
	}
}

func TestParsePaperListing4(t *testing.T) {
	k, err := Parse(paperListing4)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	if err := k.Validate(); err != nil {
		t.Errorf("Validate: %v", err)
	}
	st := k.Insts[3]
	if st.Op != OpSt || st.Space != SpaceLocal {
		t.Errorf("inst 3 = %v.%v, want st.local", st.Op, st.Space)
	}
	if st.Dst.Kind != OperandMem {
		t.Errorf("st destination kind = %v, want OperandMem", st.Dst.Kind)
	}
	ld := k.Insts[6]
	if ld.Op != OpLd || ld.Space != SpaceLocal {
		t.Errorf("inst 6 = %v.%v, want ld.local", ld.Op, ld.Space)
	}
	if _, ok := k.Array("SpillStack"); !ok {
		t.Error("SpillStack array not declared")
	}
	if got := k.LocalBytes(); got != 4 {
		t.Errorf("LocalBytes = %d, want 4", got)
	}
}

func TestPrintParseFixpoint(t *testing.T) {
	for _, src := range []string{paperListing2, paperListing4} {
		k, err := Parse(src)
		if err != nil {
			t.Fatalf("Parse: %v", err)
		}
		// The printer canonicalizes register declaration order, so the
		// fixpoint is reached after one print/parse cycle.
		k1, err := Parse(Print(k))
		if err != nil {
			t.Fatalf("reparse: %v", err)
		}
		p1 := Print(k1)
		k2, err := Parse(p1)
		if err != nil {
			t.Fatalf("reparse:\n%s\nerror: %v", p1, err)
		}
		p2 := Print(k2)
		if p1 != p2 {
			t.Errorf("print/parse not a fixpoint:\n--- first ---\n%s\n--- second ---\n%s", p1, p2)
		}
	}
}

func TestBuilderRoundTrip(t *testing.T) {
	b := NewBuilder("vecadd")
	b.Param("a", U64).Param("b", U64).Param("out", U64).Param("n", U32)
	pa, pb, pout := b.Reg(U64), b.Reg(U64), b.Reg(U64)
	n := b.Reg(U32)
	b.LdParam(U64, pa, "a").LdParam(U64, pb, "b").LdParam(U64, pout, "out").LdParam(U32, n, "n")
	idx := b.GlobalIndex()
	p := b.Reg(Pred)
	b.Setp(CmpGe, U32, p, R(idx), R(n))
	b.BraIf(p, false, "DONE")
	aAddr := b.AddrOf(pa, idx, 4)
	bAddr := b.AddrOf(pb, idx, 4)
	oAddr := b.AddrOf(pout, idx, 4)
	va, vb, vs := b.Reg(F32), b.Reg(F32), b.Reg(F32)
	b.Ld(SpaceGlobal, F32, va, MemReg(aAddr, 0))
	b.Ld(SpaceGlobal, F32, vb, MemReg(bAddr, 0))
	b.Add(F32, vs, R(va), R(vb))
	b.St(SpaceGlobal, F32, MemReg(oAddr, 0), R(vs))
	b.Label("DONE").Exit()

	k := b.Kernel()
	if err := k.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	src := Print(k)
	k2, err := Parse(src)
	if err != nil {
		t.Fatalf("Parse(Print(k)):\n%s\nerror: %v", src, err)
	}
	if err := k2.Validate(); err != nil {
		t.Fatalf("reparsed Validate: %v", err)
	}
	if len(k2.Insts) != len(k.Insts) {
		t.Errorf("inst count %d != %d", len(k2.Insts), len(k.Insts))
	}
	if k2.NumRegs() != k.NumRegs() {
		t.Errorf("reg count %d != %d", k2.NumRegs(), k.NumRegs())
	}
	// The labeled exit must survive.
	if idx, ok := k2.LabelIndex("DONE"); !ok || k2.Insts[idx].Op != OpExit {
		t.Errorf("label DONE lost in round trip")
	}
}

func TestValidateCatchesErrors(t *testing.T) {
	cases := []struct {
		name  string
		build func() *Kernel
	}{
		{"undefined label", func() *Kernel {
			b := NewBuilder("k")
			b.Bra("NOWHERE")
			return b.Kernel()
		}},
		{"guard not predicate", func() *Kernel {
			b := NewBuilder("k")
			r := b.Reg(U32)
			b.Mov(U32, r, Imm(1))
			k := b.Kernel()
			k.Insts[0].Guard = r
			return k
		}},
		{"class mismatch", func() *Kernel {
			b := NewBuilder("k")
			r := b.Reg(U32)
			b.Mov(U64, r, Imm(1)) // 64-bit op writing 32-bit register
			return b.Kernel()
		}},
		{"out of range register", func() *Kernel {
			b := NewBuilder("k")
			r := b.Reg(U32)
			b.Mov(U32, r, R(Reg(99)))
			return b.Kernel()
		}},
		{"unknown symbol", func() *Kernel {
			b := NewBuilder("k")
			r := b.Reg(U64)
			b.Mov(U64, r, Sym("ghost"))
			return b.Kernel()
		}},
		{"32-bit address for local", func() *Kernel {
			b := NewBuilder("k")
			addr := b.Reg(U32)
			v := b.Reg(U32)
			b.Mov(U32, addr, Imm(0))
			b.Ld(SpaceLocal, U32, v, MemReg(addr, 0))
			return b.Kernel()
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if err := tc.build().Validate(); err == nil {
				t.Errorf("Validate accepted invalid kernel")
			}
		})
	}
}

func TestTypeProperties(t *testing.T) {
	if U32.Bytes() != 4 || U64.Bytes() != 8 || F32.Bytes() != 4 || F64.Bytes() != 8 {
		t.Error("wrong type byte widths")
	}
	if U32.Class() != Class32 || F64.Class() != Class64 || Pred.Class() != ClassPred {
		t.Error("wrong register classes")
	}
	if Class32.Slots() != 1 || Class64.Slots() != 2 || ClassPred.Slots() != 0 {
		t.Error("wrong slot counts")
	}
	if !F32.IsFloat() || F32.IsInt() || !S32.IsSigned() || U32.IsSigned() {
		t.Error("wrong type predicates")
	}
}

func TestTypeNameRoundTrip(t *testing.T) {
	all := []Type{U8, U16, U32, U64, S8, S16, S32, S64, F32, F64, B8, B16, B32, B64, Pred}
	for _, ty := range all {
		got, ok := TypeFromName(ty.String())
		if !ok || got != ty {
			t.Errorf("TypeFromName(%q) = %v, %v", ty.String(), got, ok)
		}
	}
}

func TestOpcodeNameRoundTrip(t *testing.T) {
	for op := OpNop; op <= OpEx2; op++ {
		got, ok := OpcodeFromName(op.String())
		if !ok || got != op {
			t.Errorf("OpcodeFromName(%q) = %v, %v", op.String(), got, ok)
		}
	}
}

// TestNameTables: every spelling in the four name tables parses back to
// its own entry, no spelling appears twice (a duplicate would make the
// parser's reverse lookup keep only one of the two), and unknown
// spellings are rejected.
func TestNameTables(t *testing.T) {
	checkNameTable(t, "opcodeNames", opcodeNames, OpcodeFromName)
	checkNameTable(t, "cmpNames", cmpNames, CmpFromName)
	checkNameTable(t, "typeNames", typeNames, TypeFromName)
	checkNameTable(t, "specialNames", specialNames, SpecialFromName)
}

func checkNameTable[K interface {
	~uint8
	String() string
}](t *testing.T, table string, names map[K]string, fromName func(string) (K, bool)) {
	t.Helper()
	owner := make(map[string]K, len(names))
	for k, n := range names {
		if prev, dup := owner[n]; dup {
			t.Errorf("%s: %q spells both %d and %d", table, n, uint8(prev), uint8(k))
		}
		owner[n] = k
		if got, ok := fromName(k.String()); !ok || got != k {
			t.Errorf("%s: from name %q = %d, %v; want %d", table, k.String(), uint8(got), ok, uint8(k))
		}
	}
	for _, bad := range []string{"", "bogus", "%bogus", "U32", "add.u32"} {
		if got, ok := fromName(bad); ok {
			t.Errorf("%s: unknown spelling %q parsed as %d", table, bad, uint8(got))
		}
	}
}

func TestUsesDefs(t *testing.T) {
	b := NewBuilder("k")
	a, c, d := b.Reg(U32), b.Reg(U32), b.Reg(U32)
	addr := b.Reg(U64)
	p := b.Reg(Pred)
	b.Mov(U64, addr, Imm(0))
	b.Add(U32, d, R(a), R(c))
	b.If(p, false).St(SpaceGlobal, U32, MemReg(addr, 0), R(d))
	k := b.Kernel()

	add := &k.Insts[1]
	uses := add.Uses(nil)
	if len(uses) != 2 || uses[0] != a || uses[1] != c {
		t.Errorf("add uses = %v, want [%d %d]", uses, a, c)
	}
	defs := add.Defs(nil)
	if len(defs) != 1 || defs[0] != d {
		t.Errorf("add defs = %v, want [%d]", defs, d)
	}

	st := &k.Insts[2]
	uses = st.Uses(nil)
	// Guard + stored value + address base.
	want := map[Reg]bool{p: true, d: true, addr: true}
	if len(uses) != 3 {
		t.Fatalf("st uses = %v, want 3 registers", uses)
	}
	for _, u := range uses {
		if !want[u] {
			t.Errorf("unexpected st use %d", u)
		}
	}
	if defs := st.Defs(nil); len(defs) != 0 {
		t.Errorf("st defs = %v, want none", defs)
	}
}

func TestParamOffsets(t *testing.T) {
	k := NewKernel("k")
	k.AddParam("a", U64)
	k.AddParam("n", U32)
	k.AddParam("b", U64)
	if off, ok := k.ParamOffset("a"); !ok || off != 0 {
		t.Errorf("offset a = %d, %v", off, ok)
	}
	if off, ok := k.ParamOffset("n"); !ok || off != 8 {
		t.Errorf("offset n = %d, %v", off, ok)
	}
	if off, ok := k.ParamOffset("b"); !ok || off != 16 {
		t.Errorf("offset b = %d, %v (alignment)", off, ok)
	}
}

func TestArrayLayout(t *testing.T) {
	k := NewKernel("k")
	k.AddArray(ArrayDecl{Name: "s1", Space: SpaceShared, Align: 4, Size: 10})
	k.AddArray(ArrayDecl{Name: "s2", Space: SpaceShared, Align: 8, Size: 16})
	k.AddArray(ArrayDecl{Name: "l1", Space: SpaceLocal, Align: 4, Size: 8})
	if got := k.SharedBytes(); got != 32 { // 10 aligned to 8 -> 16, +16
		t.Errorf("SharedBytes = %d, want 32", got)
	}
	if got := k.LocalBytes(); got != 8 {
		t.Errorf("LocalBytes = %d, want 8", got)
	}
	if off, ok := k.ArrayOffset("s2"); !ok || off != 16 {
		t.Errorf("ArrayOffset(s2) = %d, %v, want 16", off, ok)
	}
}

// TestFImmRoundTrip is a property test: any float64 immediate survives
// print -> parse exactly (bit pattern preserved through the 0D hex form).
func TestFImmRoundTrip(t *testing.T) {
	f := func(v float64) bool {
		b := NewBuilder("k")
		r := b.Reg(F64)
		b.Mov(F64, r, FImm(v))
		b.Exit()
		src := Print(b.Kernel())
		k2, err := Parse(src)
		if err != nil {
			return false
		}
		got := k2.Insts[0].Srcs[0].FImm
		return floatBits64(got) == floatBits64(v)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestImmRoundTrip is a property test over integer immediates and offsets.
func TestImmRoundTrip(t *testing.T) {
	f := func(v int64, off int32) bool {
		b := NewBuilder("k")
		r := b.Reg(U64)
		d := b.Reg(U32)
		b.Mov(U64, r, Imm(v))
		b.Ld(SpaceGlobal, U32, d, MemReg(r, int64(off)))
		b.Exit()
		src := Print(b.Kernel())
		k2, err := Parse(src)
		if err != nil {
			return false
		}
		return k2.Insts[0].Srcs[0].Imm == v && k2.Insts[1].Srcs[0].Off == int64(off)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestStaticStats(t *testing.T) {
	k, err := Parse(paperListing4)
	if err != nil {
		t.Fatal(err)
	}
	s := k.StaticStats()
	if s.LocalOps != 2 {
		t.Errorf("LocalOps = %d, want 2", s.LocalOps)
	}
	if s.SpillBytes != 8 {
		t.Errorf("SpillBytes = %d, want 8", s.SpillBytes)
	}
	if s.Loads != 1 || s.Stores != 1 {
		t.Errorf("Loads/Stores = %d/%d, want 1/1", s.Loads, s.Stores)
	}
}

func TestPrintModuleHeader(t *testing.T) {
	m := &Module{Kernels: []*Kernel{NewKernel("empty")}}
	out := PrintModule(m)
	for _, want := range []string{".version 3.2", ".target sm_20", ".address_size 64", ".entry empty"} {
		if !strings.Contains(out, want) {
			t.Errorf("module output missing %q:\n%s", want, out)
		}
	}
	m2, err := ParseModule(out)
	if err != nil {
		t.Fatalf("ParseModule: %v", err)
	}
	if len(m2.Kernels) != 1 || m2.Kernels[0].Name != "empty" {
		t.Errorf("module round trip failed")
	}
}

func TestCountedRegDecl(t *testing.T) {
	src := `
.visible .entry k()
{
	.reg .pred %p<2>;
	.reg .f32 %f<3>;

	setp.lt.f32 %p0, %f0, %f1;
	@%p0 add.f32 %f2, %f0, %f1;
	@!%p1 exit;
	exit;
}
`
	k, err := Parse(src)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	if k.NumRegs() != 5 {
		t.Errorf("NumRegs = %d, want 5", k.NumRegs())
	}
	if k.Insts[1].Guard == NoReg || k.Insts[1].GuardNeg {
		t.Error("inst 1 guard wrong")
	}
	if k.Insts[2].Guard == NoReg || !k.Insts[2].GuardNeg {
		t.Error("inst 2 negated guard wrong")
	}
}

func TestNegativeOffsetRoundTrip(t *testing.T) {
	b := NewBuilder("k")
	addr := b.Reg(U64)
	v := b.Reg(U32)
	b.Mov(U64, addr, Imm(128))
	b.Ld(SpaceGlobal, U32, v, MemReg(addr, -8))
	b.Exit()
	src := Print(b.Kernel())
	k2, err := Parse(src)
	if err != nil {
		t.Fatalf("Parse:\n%s\n%v", src, err)
	}
	if got := k2.Insts[1].Srcs[0].Off; got != -8 {
		t.Errorf("offset = %d, want -8", got)
	}
}

func TestClone(t *testing.T) {
	k, err := Parse(paperListing4)
	if err != nil {
		t.Fatal(err)
	}
	c := k.Clone()
	c.Insts[0].Op = OpNop
	c.RegTypes[0] = F32
	c.Params[0].Name = "changed"
	if k.Insts[0].Op == OpNop || k.RegTypes[0] == F32 || k.Params[0].Name == "changed" {
		t.Error("Clone shares state with original")
	}
}

func TestModuleSelect(t *testing.T) {
	a, b := &Kernel{Name: "a"}, &Kernel{Name: "b"}
	for _, tc := range []struct {
		name    string
		kernels []*Kernel
		sel     string
		want    *Kernel
		errFrag string
	}{
		{"no kernels", nil, "", nil, "no kernels"},
		{"named kernel missing", []*Kernel{a, b}, "c", nil, `kernel "c" not found`},
		{"named kernel present", []*Kernel{a, b}, "b", b, ""},
		{"single kernel", []*Kernel{a}, "", a, ""},
		{"several kernels, none named", []*Kernel{a, b}, "", nil, "2 kernels ([a b])"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			m := &Module{Kernels: tc.kernels}
			k, err := m.Select(tc.sel)
			if tc.errFrag == "" {
				if err != nil || k != tc.want {
					t.Fatalf("Select(%q) = %v, %v; want kernel %q", tc.sel, k, err, tc.want.Name)
				}
				return
			}
			if err == nil || !strings.Contains(err.Error(), tc.errFrag) {
				t.Fatalf("Select(%q) error = %v, want one containing %q", tc.sel, err, tc.errFrag)
			}
			if k != nil {
				t.Errorf("Select(%q) returned kernel %q alongside the error", tc.sel, k.Name)
			}
		})
	}
}
