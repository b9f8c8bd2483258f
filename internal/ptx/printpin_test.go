package ptx_test

import (
	"bufio"
	"crypto/sha256"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"strings"
	"testing"

	"crat/internal/ptx"
	"crat/internal/regalloc"
	"crat/internal/spillopt"
	"crat/internal/workloads"
)

var updatePrintPin = flag.Bool("update", false, "rewrite testdata/printpin.txt from the current printer")

const printPinFile = "testdata/printpin.txt"

// handBuiltKernel reaches every branch of the instruction printer: both
// guard polarities, integer and float immediates (−0 and NaN among them),
// register-based addresses with positive and negative offsets, symbol
// addresses with and without an offset, address-of operands, cvt, every
// setp comparison, ld.global.cg, the mnemonic modifiers (.lo, .rn,
// .approx), bar.sync, ret, exit, nop, special registers, and one register
// of every prefix (%rs, %rc, %r, %rd, %f, %fd, %p).
func handBuiltKernel() *ptx.Kernel {
	k := ptx.NewKernel("pin_hand")
	k.AddParam("out", ptx.U64)
	k.AddParam("n", ptx.U32)
	k.AddArray(ptx.ArrayDecl{Name: "tile", Space: ptx.SpaceShared, Align: 8, Size: 256})
	k.AddArray(ptx.ArrayDecl{Name: "SpillStack", Space: ptx.SpaceLocal, Align: 4, Size: 24})
	// Declared out of type order, so the .reg grouping has to sort.
	p := k.NewReg(ptx.Pred)
	fd := k.NewReg(ptx.F64)
	rs := k.NewReg(ptx.U16)
	r := k.NewReg(ptx.U32)
	rc := k.NewReg(ptx.U8)
	rd := k.NewReg(ptx.U64)
	f := k.NewReg(ptx.F32)
	s := k.NewReg(ptx.S32)
	b := k.NewReg(ptx.B32)
	r2 := k.NewReg(ptx.U32)
	p2 := k.NewReg(ptx.Pred)
	sd := k.NewReg(ptx.S64)

	add := func(in ptx.Inst) { k.Append(in) }
	none := ptx.NoReg
	add(ptx.Inst{Label: "ENTRY", Guard: none, Op: ptx.OpLd, Type: ptx.U64, Space: ptx.SpaceParam, Dst: ptx.R(rd), Srcs: []ptx.Operand{ptx.MemSym("out", 0)}})
	add(ptx.Inst{Guard: none, Op: ptx.OpLd, Type: ptx.U32, Space: ptx.SpaceParam, Dst: ptx.R(r), Srcs: []ptx.Operand{ptx.MemSym("n", 0)}})
	add(ptx.Inst{Guard: none, Op: ptx.OpMov, Type: ptx.U32, Dst: ptx.R(r2), Srcs: []ptx.Operand{ptx.Spec(ptx.SpecTidX)}})
	for _, sp := range []ptx.Special{ptx.SpecTidY, ptx.SpecTidZ, ptx.SpecNTidX, ptx.SpecNTidY, ptx.SpecNTidZ,
		ptx.SpecCtaIdX, ptx.SpecCtaIdY, ptx.SpecCtaIdZ, ptx.SpecNCtaIdX, ptx.SpecNCtaIdY, ptx.SpecNCtaIdZ,
		ptx.SpecLaneId, ptx.SpecWarpId} {
		add(ptx.Inst{Guard: none, Op: ptx.OpMov, Type: ptx.U32, Dst: ptx.R(r2), Srcs: []ptx.Operand{ptx.Spec(sp)}})
	}
	add(ptx.Inst{Guard: none, Op: ptx.OpMov, Type: ptx.U64, Dst: ptx.R(rd), Srcs: []ptx.Operand{ptx.Sym("tile")}})
	for _, v := range []int64{0, 1, -1, 7, -4096, math.MaxInt64, math.MinInt64} {
		add(ptx.Inst{Guard: none, Op: ptx.OpMov, Type: ptx.S64, Dst: ptx.R(sd), Srcs: []ptx.Operand{ptx.Imm(v)}})
	}
	for _, v := range []float64{0, math.Copysign(0, -1), 1.5, -2.25, math.NaN(), math.Inf(1), math.Inf(-1), math.SmallestNonzeroFloat64, math.MaxFloat64} {
		add(ptx.Inst{Guard: none, Op: ptx.OpMov, Type: ptx.F64, Dst: ptx.R(fd), Srcs: []ptx.Operand{ptx.FImm(v)}})
	}
	add(ptx.Inst{Guard: none, Op: ptx.OpMov, Type: ptx.F32, Dst: ptx.R(f), Srcs: []ptx.Operand{ptx.FImm(0.5)}})
	add(ptx.Inst{Guard: none, Op: ptx.OpCvt, Type: ptx.U16, CvtFrom: ptx.U32, Dst: ptx.R(rs), Srcs: []ptx.Operand{ptx.R(r)}})
	add(ptx.Inst{Guard: none, Op: ptx.OpCvt, Type: ptx.U8, CvtFrom: ptx.U16, Dst: ptx.R(rc), Srcs: []ptx.Operand{ptx.R(rs)}})
	add(ptx.Inst{Guard: none, Op: ptx.OpCvt, Type: ptx.F32, CvtFrom: ptx.S32, Dst: ptx.R(f), Srcs: []ptx.Operand{ptx.R(s)}})
	add(ptx.Inst{Guard: none, Op: ptx.OpCvt, Type: ptx.F64, CvtFrom: ptx.F32, Dst: ptx.R(fd), Srcs: []ptx.Operand{ptx.R(f)}})
	for _, c := range []ptx.CmpOp{ptx.CmpEq, ptx.CmpNe, ptx.CmpLt, ptx.CmpLe, ptx.CmpGt, ptx.CmpGe} {
		add(ptx.Inst{Guard: none, Op: ptx.OpSetp, Type: ptx.S32, Cmp: c, Dst: ptx.R(p), Srcs: []ptx.Operand{ptx.R(s), ptx.Imm(3)}})
	}
	add(ptx.Inst{Guard: none, Op: ptx.OpSetp, Type: ptx.F32, Cmp: ptx.CmpLt, Dst: ptx.R(p2), Srcs: []ptx.Operand{ptx.R(f), ptx.FImm(1)}})
	add(ptx.Inst{Guard: p, Op: ptx.OpAdd, Type: ptx.U32, Dst: ptx.R(r), Srcs: []ptx.Operand{ptx.R(r), ptx.Imm(1)}})
	add(ptx.Inst{Guard: p, GuardNeg: true, Op: ptx.OpSub, Type: ptx.U32, Dst: ptx.R(r), Srcs: []ptx.Operand{ptx.R(r), ptx.R(r2)}})
	add(ptx.Inst{Guard: none, Op: ptx.OpMul, Type: ptx.U32, Dst: ptx.R(r), Srcs: []ptx.Operand{ptx.R(r), ptx.Imm(3)}})
	add(ptx.Inst{Guard: none, Op: ptx.OpMul, Type: ptx.F32, Dst: ptx.R(f), Srcs: []ptx.Operand{ptx.R(f), ptx.R(f)}})
	add(ptx.Inst{Guard: none, Op: ptx.OpMad, Type: ptx.S32, Dst: ptx.R(s), Srcs: []ptx.Operand{ptx.R(s), ptx.R(s), ptx.Imm(-2)}})
	add(ptx.Inst{Guard: none, Op: ptx.OpMad, Type: ptx.F64, Dst: ptx.R(fd), Srcs: []ptx.Operand{ptx.R(fd), ptx.R(fd), ptx.R(fd)}})
	add(ptx.Inst{Guard: none, Op: ptx.OpDiv, Type: ptx.U32, Dst: ptx.R(r), Srcs: []ptx.Operand{ptx.R(r), ptx.Imm(5)}})
	add(ptx.Inst{Guard: none, Op: ptx.OpDiv, Type: ptx.F32, Dst: ptx.R(f), Srcs: []ptx.Operand{ptx.R(f), ptx.FImm(3)}})
	add(ptx.Inst{Guard: none, Op: ptx.OpRem, Type: ptx.S32, Dst: ptx.R(s), Srcs: []ptx.Operand{ptx.R(s), ptx.Imm(7)}})
	for _, op := range []ptx.Opcode{ptx.OpRcp, ptx.OpSqrt, ptx.OpRsqrt, ptx.OpSin, ptx.OpCos, ptx.OpLg2, ptx.OpEx2} {
		add(ptx.Inst{Guard: none, Op: op, Type: ptx.F32, Dst: ptx.R(f), Srcs: []ptx.Operand{ptx.R(f)}})
	}
	for _, op := range []ptx.Opcode{ptx.OpMin, ptx.OpMax, ptx.OpAnd, ptx.OpOr, ptx.OpXor, ptx.OpShl, ptx.OpShr} {
		add(ptx.Inst{Guard: none, Op: op, Type: ptx.B32, Dst: ptx.R(b), Srcs: []ptx.Operand{ptx.R(b), ptx.Imm(2)}})
	}
	for _, op := range []ptx.Opcode{ptx.OpAbs, ptx.OpNeg, ptx.OpNot} {
		add(ptx.Inst{Guard: none, Op: op, Type: ptx.S32, Dst: ptx.R(s), Srcs: []ptx.Operand{ptx.R(s)}})
	}
	add(ptx.Inst{Guard: none, Op: ptx.OpSelp, Type: ptx.U32, Dst: ptx.R(r), Srcs: []ptx.Operand{ptx.R(r), ptx.Imm(9), ptx.R(p2)}})
	add(ptx.Inst{Guard: none, Op: ptx.OpLd, Type: ptx.U32, Space: ptx.SpaceGlobal, Bypass: true, Dst: ptx.R(r2), Srcs: []ptx.Operand{ptx.MemReg(rd, 8)}})
	add(ptx.Inst{Guard: none, Op: ptx.OpLd, Type: ptx.U32, Space: ptx.SpaceGlobal, Dst: ptx.R(r2), Srcs: []ptx.Operand{ptx.MemReg(rd, -4)}})
	add(ptx.Inst{Guard: none, Op: ptx.OpLd, Type: ptx.F64, Space: ptx.SpaceShared, Dst: ptx.R(fd), Srcs: []ptx.Operand{ptx.MemSym("tile", 16)}})
	add(ptx.Inst{Guard: none, Op: ptx.OpLd, Type: ptx.U32, Space: ptx.SpaceLocal, Dst: ptx.R(r2), Srcs: []ptx.Operand{ptx.MemSym("SpillStack", -8)}, Meta: ptx.MetaSpillLoad})
	add(ptx.Inst{Guard: none, Op: ptx.OpSt, Type: ptx.U32, Space: ptx.SpaceGlobal, Dst: ptx.MemReg(rd, 0), Srcs: []ptx.Operand{ptx.R(r2)}})
	add(ptx.Inst{Guard: none, Op: ptx.OpSt, Type: ptx.U32, Space: ptx.SpaceGlobal, Bypass: true, Dst: ptx.MemReg(rd, 12), Srcs: []ptx.Operand{ptx.Imm(4)}})
	add(ptx.Inst{Guard: none, Op: ptx.OpSt, Type: ptx.U8, Space: ptx.SpaceShared, Dst: ptx.MemSym("tile", 0), Srcs: []ptx.Operand{ptx.R(rc)}})
	add(ptx.Inst{Label: "LOOP", Guard: p2, Op: ptx.OpBra, Target: "ENTRY"})
	add(ptx.Inst{Guard: p2, GuardNeg: true, Op: ptx.OpBra, Target: "LOOP"})
	add(ptx.Inst{Guard: none, Op: ptx.OpBar})
	add(ptx.Inst{Guard: none, Op: ptx.OpNop})
	add(ptx.Inst{Label: "DONE", Guard: p, Op: ptx.OpRet})
	add(ptx.Inst{Guard: none, Op: ptx.OpExit})
	return k
}

// printPinCorpus returns the modules the print pin covers: every Table-3
// kernel as written, its allocation at MaxReg, its allocation at the
// feasible floor (the local SpillStack), and its lowest spilling allocation
// whose spill stack moves to shared memory, plus the hand-built kernel alone, in a
// versionless module (the printer's default header) and beside a Table-3
// kernel, a kernel with no parameters or registers, and an empty module.
func printPinCorpus(t *testing.T) []struct {
	name string
	mod  *ptx.Module
} {
	var out []struct {
		name string
		mod  *ptx.Module
	}
	add := func(name string, m *ptx.Module) {
		out = append(out, struct {
			name string
			mod  *ptx.Module
		}{name, m})
	}
	one := func(k *ptx.Kernel) *ptx.Module {
		return &ptx.Module{Version: "7.0", Target: "sm_70", Kernels: []*ptx.Kernel{k}}
	}
	hand := handBuiltKernel()
	add("hand", one(hand))
	add("hand/default-header", &ptx.Module{Kernels: []*ptx.Kernel{hand}})
	empty := ptx.NewKernel("pin_empty")
	empty.Append(ptx.Inst{Guard: ptx.NoReg, Op: ptx.OpExit})
	add("empty", one(empty))
	add("no-kernels", &ptx.Module{})
	for _, p := range workloads.All() {
		app := p.App()
		k := app.Kernel
		add(app.Name, one(k))
		maxReg, err := regalloc.MaxReg(k)
		if err != nil {
			t.Fatalf("%s: MaxReg: %v", app.Name, err)
		}
		res, err := regalloc.Allocate(k, regalloc.Options{Regs: maxReg})
		if err != nil {
			t.Fatalf("%s: allocate at MaxReg %d: %v", app.Name, maxReg, err)
		}
		add(fmt.Sprintf("%s/reg=%d", app.Name, maxReg), one(res.Kernel))
		floor := 4
		for ; floor < maxReg; floor++ {
			res, err = regalloc.Allocate(k, regalloc.Options{Regs: floor})
			if !errors.Is(err, regalloc.ErrInfeasible) {
				break
			}
		}
		if err != nil {
			t.Fatalf("%s: allocate at %d: %v", app.Name, floor, err)
		}
		add(fmt.Sprintf("%s/reg=%d", app.Name, floor), one(res.Kernel))
		// The shared sub-stacks' address registers raise the pressure, so
		// the rewrite may need a budget or two above the floor.
		for b := floor; b < maxReg; b++ {
			res, err := regalloc.Allocate(k, regalloc.Options{Regs: b})
			if err != nil || len(res.Spills) == 0 {
				break
			}
			opt, err := spillopt.Optimize(res, regalloc.Options{Regs: b}, spillopt.Options{SpareShmBytes: 1 << 20, BlockSize: app.Block})
			if err == nil {
				add(fmt.Sprintf("%s/reg=%d/shared", app.Name, b), one(opt.Alloc.Kernel))
				break
			}
		}
	}
	add("hand+"+out[4].name, &ptx.Module{Version: "3.2", Target: "sm_20", Kernels: []*ptx.Kernel{hand, out[4].mod.Kernels[0]}})
	return out
}

// TestPrintPin checks that the printer's output is exactly what the
// checked-in table records, byte for byte, for every module of the corpus
// and for FormatInst.
// The compile cache, the harness's simulation keys and every compile reply
// are built from this text, so a printer change that moves one byte moves
// them all. Regenerate with `go test ./internal/ptx -run TestPrintPin
// -update` only for an intended change of the printed dialect.
func TestPrintPin(t *testing.T) {
	var got []string
	pin := func(name, text string) {
		got = append(got, fmt.Sprintf("%s %d %x", name, len(text), sha256.Sum256([]byte(text))))
	}
	for _, c := range printPinCorpus(t) {
		pin(c.name, ptx.PrintModule(c.mod))
	}
	// The diagnostic one-instruction form, over every instruction of the
	// hand-built kernel.
	hand := handBuiltKernel()
	var lines []string
	for i := range hand.Insts {
		lines = append(lines, ptx.FormatInst(hand, i))
	}
	pin("hand/FormatInst", strings.Join(lines, "\n"))
	if *updatePrintPin {
		body := "# name len(text) sha256(text); text is ptx.PrintModule, or FormatInst lines\n" + strings.Join(got, "\n") + "\n"
		if err := os.WriteFile(printPinFile, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	f, err := os.Open(printPinFile)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var want []string
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if line := sc.Text(); line != "" && !strings.HasPrefix(line, "#") {
			want = append(want, line)
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Errorf("print pin has %d modules, want %d", len(got), len(want))
	}
	for i := 0; i < len(got) && i < len(want); i++ {
		if got[i] != want[i] {
			t.Errorf("printed module moved:\n got %s\nwant %s", got[i], want[i])
		}
	}
}
