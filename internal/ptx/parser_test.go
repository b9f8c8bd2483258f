package ptx

import (
	"strings"
	"testing"
	"unsafe"
)

func wrapBody(body string) string {
	return ".visible .entry k()\n{\n\t.reg .u32 %r<4>;\n\t.reg .u64 %rd<2>;\n\t.reg .pred %p<2>;\n" + body + "\n\texit;\n}\n"
}

func TestParserErrors(t *testing.T) {
	cases := []struct {
		name string
		src  string
		want string // substring of the error
	}{
		{"unknown opcode", wrapBody("\tfrobnicate.u32 %r0, %r1;"), "unknown opcode"},
		{"unknown register", wrapBody("\tadd.u32 %r0, %r1, %zz9;"), "unknown register"},
		{"unknown guard", wrapBody("\t@%q7 add.u32 %r0, %r1, %r2;"), "unknown guard"},
		{"unknown suffix", wrapBody("\tadd.wat %r0, %r1, %r2;"), "unknown suffix"},
		{"bad f32 literal", wrapBody("\tmov.u32 %r0, 0Fxyz;"), "bad f32 literal"},
		{"unknown operand", wrapBody("\tmov.u64 %rd0, NotDeclared;"), "unknown operand"},
		{"unknown address register", wrapBody("\tld.global.u32 %r0, [%zz1];"), "unknown address register"},
		{"unterminated body", ".visible .entry k()\n{\n\texit;\n", "unterminated"},
		{"bad top level", "garbage here\n", "unexpected top-level"},
		{"bad param", ".visible .entry k(\n\t.notparam .u32 x\n)\n{\n\texit;\n}\n", "bad parameter"},
		{"bad param type", ".visible .entry k(\n\t.param .u99 x\n)\n{\n\texit;\n}\n", "bad parameter type"},
		{"duplicate register", wrapBody("\t.reg .u32 %r0;"), "duplicate register"},
		{"bad array size", ".visible .entry k()\n{\n\t.local .align 4 .b8 A[xx];\n\texit;\n}\n", "bad array size"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := Parse(tc.src)
			if err == nil {
				t.Fatalf("Parse accepted invalid input")
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Errorf("error %q does not contain %q", err, tc.want)
			}
		})
	}
}

func TestParseErrorHasLineNumber(t *testing.T) {
	src := ".visible .entry k()\n{\n\t.reg .u32 %r<2>;\n\tadd.u32 %r0, %r1, %nope;\n\texit;\n}\n"
	_, err := Parse(src)
	pe, ok := err.(*ParseError)
	if !ok {
		t.Fatalf("error type %T, want *ParseError", err)
	}
	if pe.Line != 4 {
		t.Errorf("error line = %d, want 4", pe.Line)
	}
}

func TestParseToleratesNvccSpellings(t *testing.T) {
	// Rounding/precision modifiers from real nvcc output must be accepted
	// and ignored.
	src := wrapBody(strings.Join([]string{
		"\tmul.lo.u32 %r0, %r1, %r2;",
		"\tcvt.u64.u32 %rd0, %r0;",
	}, "\n")) // base
	k, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	if k.Insts[0].Op != OpMul {
		t.Error("mul.lo not parsed as mul")
	}

	fsrc := `
.visible .entry f()
{
	.reg .f32 %f<3>;

	div.rn.f32 %f0, %f1, %f2;
	sqrt.rn.f32 %f0, %f1;
	rcp.approx.ftz.f32 %f1, %f2;
	mad.rn.f32 %f2, %f0, %f1, %f0;
	exit;
}
`
	k2, err := Parse(fsrc)
	if err != nil {
		t.Fatal(err)
	}
	wantOps := []Opcode{OpDiv, OpSqrt, OpRcp, OpMad, OpExit}
	for i, w := range wantOps {
		if k2.Insts[i].Op != w {
			t.Errorf("inst %d op = %v, want %v", i, k2.Insts[i].Op, w)
		}
	}
}

func TestParseMultiKernelModule(t *testing.T) {
	src := `
.version 3.2
.target sm_20

.visible .entry a()
{
	exit;
}

.visible .entry b(
	.param .u64 out
)
{
	.reg .u32 %r<1>;

	mov.u32 %r0, %tid.x;
	exit;
}
`
	m, err := ParseModule(src)
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Kernels) != 2 {
		t.Fatalf("parsed %d kernels, want 2", len(m.Kernels))
	}
	if _, ok := m.Kernel("b"); !ok {
		t.Error("kernel b not found")
	}
	if _, ok := m.Kernel("c"); ok {
		t.Error("phantom kernel c found")
	}
	if m.Version != "3.2" || m.Target != "sm_20" {
		t.Errorf("header lost: %q %q", m.Version, m.Target)
	}
	// Parse (single-kernel form) must reject multi-kernel sources.
	if _, err := Parse(src); err == nil {
		t.Error("Parse accepted a multi-kernel module")
	}
}

func TestSplitOperandsNestedBrackets(t *testing.T) {
	// split cuts operands the way parseInst does: at top-level commas,
	// dropping an empty last piece.
	split := func(s string) []string {
		var out []string
		for more := true; more; {
			var tok string
			tok, s, more = cutOperand(s)
			if more || tok != "" {
				out = append(out, tok)
			}
		}
		return out
	}
	got := split("%r0, [%rd1+8], 42")
	if len(got) != 3 || got[1] != "[%rd1+8]" {
		t.Errorf("operands = %q", got)
	}
	got = split("[%rd1+8, 4], %r0,")
	if len(got) != 2 || got[0] != "[%rd1+8, 4]" || got[1] != "%r0" {
		t.Errorf("operands = %q", got)
	}
	got = split("")
	if len(got) != 0 {
		t.Errorf("operands of \"\" = %q", got)
	}
}

func TestBareGuardOnExit(t *testing.T) {
	src := `
.visible .entry k()
{
	.reg .pred %p<1>;
	.reg .u32 %r<1>;

	mov.u32 %r0, %tid.x;
	setp.eq.u32 %p0, %r0, 0;
	@%p0 exit;
	exit;
}
`
	k, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	if k.Insts[2].Op != OpExit || k.Insts[2].Guard == NoReg {
		t.Error("guarded exit not parsed")
	}
}

// TestParsedNamesDoNotPinSource: every name a parsed kernel keeps is its
// own copy, so holding the kernel (as a compile cache does) does not keep
// the whole source text alive.
func TestParsedNamesDoNotPinSource(t *testing.T) {
	src := `
.visible .entry pinned(.param .u64 out, .param .u32 n)
{
	.reg .u64 %rd<2>;
	.reg .u32 %r<2>;
	.shared .align 4 .b8 tile[64];
	ld.param.u64 %rd0, [out];
	mov.u64 %rd1, tile;
	bra done;
done:
	st.shared.u32 [tile+4], %r0;
	exit;
}
`
	k, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	start := uintptr(unsafe.Pointer(unsafe.StringData(src)))
	end := start + uintptr(len(src))
	check := func(what, s string) {
		t.Helper()
		if s == "" {
			t.Fatalf("%s is empty", what)
		}
		if p := uintptr(unsafe.Pointer(unsafe.StringData(s))); p >= start && p < end {
			t.Errorf("%s %q points into the source text", what, s)
		}
	}
	check("kernel name", k.Name)
	for _, p := range k.Params {
		check("param name", p.Name)
	}
	for _, a := range k.Arrays {
		check("array name", a.Name)
	}
	for _, in := range k.Insts {
		if in.Label != "" {
			check("label", in.Label)
		}
		if in.Op == OpBra {
			check("branch target", in.Target)
		}
		for _, o := range append([]Operand{in.Dst}, in.Srcs...) {
			if o.Sym != "" {
				check("symbol operand", o.Sym)
			}
		}
	}
}
