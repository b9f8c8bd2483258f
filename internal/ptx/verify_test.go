package ptx

import (
	"errors"
	"strings"
	"testing"
)

// verifyVictim builds a small well-formed kernel that exercises params,
// arrays, branches, and a barrier — the corruption tests mutate copies.
func verifyVictim() *Kernel {
	b := NewBuilder("victim")
	b.Param("out", U64)
	b.LocalArray("stk", 64)
	b.SharedArray("tile", 128)
	po := b.Reg(U64)
	b.LdParam(U64, po, "out")
	x := b.Reg(U32)
	b.MovSpec(x, SpecTidX)
	p := b.Reg(Pred)
	b.Setp(CmpLt, U32, p, R(x), Imm(16))
	b.BraIf(p, false, "SKIP")
	b.St(SpaceLocal, U32, MemSym("stk", 0), R(x))
	b.Label("SKIP").Bar()
	b.St(SpaceShared, U32, MemSym("tile", 4), R(x))
	b.St(SpaceGlobal, U32, MemReg(po, 0), R(x))
	b.Exit()
	return b.Kernel()
}

func TestVerifyAcceptsValidKernel(t *testing.T) {
	if err := Verify(verifyVictim(), "test"); err != nil {
		t.Fatalf("valid kernel rejected: %v", err)
	}
}

// TestVerifyCatchesCorruptions injects one structural corruption per case
// into a valid kernel and requires a structured *VerifyError naming the
// pass — never a panic, never silent acceptance.
func TestVerifyCatchesCorruptions(t *testing.T) {
	cases := []struct {
		name    string
		corrupt func(k *Kernel)
		want    string // substring of the error message
	}{
		{
			"dangling branch target",
			func(k *Kernel) {
				for i := range k.Insts {
					if k.Insts[i].Op == OpBra {
						k.Insts[i].Target = "NOWHERE"
						return
					}
				}
			},
			"undefined branch target",
		},
		{
			"destination class mismatch",
			func(k *Kernel) {
				wide := k.NewReg(U64)
				k.Insts = append([]Inst{{
					Op: OpAdd, Type: U32, Dst: R(wide),
					Srcs: []Operand{Imm(1), Imm(2)}, Guard: NoReg,
				}}, k.Insts...)
			},
			"class",
		},
		{
			"static out-of-bounds array access",
			func(k *Kernel) {
				for i := range k.Insts {
					in := &k.Insts[i]
					if in.Op == OpSt && in.Space == SpaceLocal {
						in.Dst.Off = 61 // 61+4 > 64
						return
					}
				}
			},
			"out of bounds",
		},
		{
			"predicated barrier",
			func(k *Kernel) {
				for i := range k.Insts {
					if k.Insts[i].Op == OpBar {
						k.Insts[i].Guard = Reg(2) // the Pred register
						return
					}
				}
			},
			"must not be predicated",
		},
		{
			"unreachable barrier",
			func(k *Kernel) {
				// Append dead code after exit containing a bar.
				k.Insts = append(k.Insts, Inst{Op: OpBar, Guard: NoReg})
			},
			"unreachable",
		},
		{
			"wrong operand count",
			func(k *Kernel) {
				r := k.NewReg(U32)
				k.Insts = append([]Inst{{
					Op: OpAdd, Type: U32, Dst: R(r),
					Srcs: []Operand{Imm(1)}, Guard: NoReg,
				}}, k.Insts...)
			},
			"source operands",
		},
		{
			"out-of-range register index",
			func(k *Kernel) {
				for i := range k.Insts {
					in := &k.Insts[i]
					if in.Op == OpSetp {
						in.Srcs[0] = R(Reg(9999))
						return
					}
				}
			},
			"source 0 register 9999 out of range",
		},
		{
			"unknown symbol reference",
			func(k *Kernel) {
				r := k.NewReg(U64)
				k.Insts = append([]Inst{{
					Op: OpMov, Type: U64, Dst: R(r),
					Srcs: []Operand{Sym("no_such_array")}, Guard: NoReg,
				}}, k.Insts...)
			},
			"unknown symbol",
		},
		{
			"cvt missing source type",
			func(k *Kernel) {
				d := k.NewReg(U64)
				s := k.NewReg(U32)
				k.Insts = append([]Inst{{
					Op: OpCvt, Type: U64, CvtFrom: TypeNone, Dst: R(d),
					Srcs: []Operand{R(s)}, Guard: NoReg,
				}}, k.Insts...)
			},
			"cvt",
		},
		{
			"store to param space",
			func(k *Kernel) {
				r := k.NewReg(U32)
				k.Insts = append([]Inst{{
					Op: OpSt, Space: SpaceParam, Type: U32,
					Dst: MemSym("out", 0), Srcs: []Operand{R(r)}, Guard: NoReg,
				}}, k.Insts...)
			},
			"store",
		},
		{
			"duplicate label",
			func(k *Kernel) {
				k.Insts[0].Label = "SKIP"
			},
			"duplicate label",
		},
		{
			"negative array size",
			func(k *Kernel) {
				k.Arrays[0].Size = -8
			},
			"negative size",
		},
		{
			"selp with an immediate predicate",
			func(k *Kernel) {
				regs := map[string]Reg{"%r1": k.NewReg(U32)}
				in, err := (&parser{}).parseInst(k, regs, "selp.u32 %r1, 7, 9, 1;")
				if err != nil {
					panic(err)
				}
				k.Insts = append([]Inst{in}, k.Insts...)
			},
			"inst 0 (selp.u32 %r3, 7, 9, 1;): source 2 of selp must be a predicate register",
		},
		{
			"wrong space for array access",
			func(k *Kernel) {
				for i := range k.Insts {
					in := &k.Insts[i]
					if in.Op == OpSt && in.Space == SpaceLocal {
						in.Space = SpaceShared // stk is a local array
						return
					}
				}
			},
			"space",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			k := verifyVictim().Clone()
			tc.corrupt(k)
			err := Verify(k, "test")
			if err == nil {
				t.Fatal("corruption not detected")
			}
			var ve *VerifyError
			if !errors.As(err, &ve) {
				t.Fatalf("error is %T, want *VerifyError: %v", err, err)
			}
			if ve.Pass != "test" {
				t.Errorf("Pass = %q, want %q", ve.Pass, "test")
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Errorf("error %q does not mention %q", err, tc.want)
			}
			if !strings.Contains(err.Error(), "victim") {
				t.Errorf("error %q does not name the kernel", err)
			}
		})
	}
}

// TestVerifyErrorFormat pins the rendered shape of instruction-level and
// kernel-level verify errors.
func TestVerifyErrorFormat(t *testing.T) {
	e := &VerifyError{Kernel: "k", Pass: "regalloc", Inst: 3, Disasm: "add.u32 ...", Msg: "boom"}
	if got := e.Error(); !strings.Contains(got, "after regalloc") || !strings.Contains(got, "inst 3") {
		t.Errorf("instruction-level error = %q", got)
	}
	e2 := &VerifyError{Kernel: "k", Inst: -1, Msg: "duplicate array"}
	if got := e2.Error(); strings.Contains(got, "inst") || !strings.Contains(got, "duplicate array") {
		t.Errorf("kernel-level error = %q", got)
	}
}

// TestVerifyDoesNotPanicOnUnprintable feeds the verifier a kernel whose
// instruction cannot even be formatted (register index far out of range):
// the diagnostic must degrade, not panic.
func TestVerifyDoesNotPanicOnUnprintable(t *testing.T) {
	b := NewBuilder("garbage")
	r := b.Reg(U32)
	b.Add(U32, r, R(Reg(1<<20)), Imm(1))
	b.Exit()
	err := Verify(b.Kernel(), "test")
	if err == nil {
		t.Fatal("corrupt kernel accepted")
	}
	var ve *VerifyError
	if !errors.As(err, &ve) {
		t.Fatalf("error is %T, want *VerifyError", err)
	}
}
