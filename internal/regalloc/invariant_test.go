package regalloc

import (
	"testing"

	"crat/internal/cfg"
	"crat/internal/ptx"
)

// slotsOverlap reports whether two slot ranges [a, a+wa) and [b, b+wb)
// intersect.
func slotsOverlap(a, wa, b, wb int) bool {
	return a < b+wb && b < a+wa
}

// checkColoring verifies the fundamental allocation invariant on the
// virtual (colorable) kernel: any two simultaneously-live registers have
// disjoint slot ranges.
func checkColoring(t *testing.T, res *Result) {
	t.Helper()
	k := res.Virtual
	g, err := cfg.Build(k)
	if err != nil {
		t.Fatal(err)
	}
	lv := cfg.ComputeLiveness(g)
	slots := func(r ptx.Reg) int { return k.RegType(r).Class().Slots() }

	var dbuf []ptx.Reg
	for i := range k.Insts {
		in := &k.Insts[i]
		dbuf = in.Defs(dbuf[:0])
		for _, d := range dbuf {
			if k.RegType(d).Class() == ptx.ClassPred {
				continue
			}
			ds, ok := res.Assignment[d]
			if !ok {
				t.Fatalf("inst %d: defined register %d has no slot", i, d)
			}
			lv.InstOut[i].ForEach(func(l ptx.Reg) {
				if l == d || k.RegType(l).Class() == ptx.ClassPred {
					return
				}
				ls, ok := res.Assignment[l]
				if !ok {
					t.Fatalf("inst %d: live register %d has no slot", i, l)
				}
				if slotsOverlap(ds, slots(d), ls, slots(l)) {
					t.Fatalf("inst %d: def %d (slot %d+%d) overlaps live %d (slot %d+%d)",
						i, d, ds, slots(d), l, ls, slots(l))
				}
			})
		}
	}
}

// TestColoringInvariant checks, across budgets and both algorithms, that no
// two simultaneously-live values share hardware register slots — the
// soundness property of the whole allocator.
func TestColoringInvariant(t *testing.T) {
	kernels := map[string]*ptx.Kernel{
		"pressure": pressureKernel(16),
		"paper":    paperKernel(),
	}
	for name, k := range kernels {
		max, err := MaxReg(k)
		if err != nil {
			t.Fatal(err)
		}
		for _, algo := range []Algorithm{AlgoChaitin, AlgoLinearScan} {
			for _, budget := range []int{max, max - 2, max - 6, max / 2} {
				if budget < 6 {
					continue
				}
				res, err := Allocate(k, Options{Regs: budget, Algorithm: algo})
				if err != nil {
					continue // below the feasibility floor for this algo
				}
				t.Run(name+"/"+algo.String()+"/"+itoa(budget), func(t *testing.T) {
					checkColoring(t, res)
				})
			}
		}
	}
}

func itoa(v int) string {
	if v == 0 {
		return "0"
	}
	var b [8]byte
	i := len(b)
	for v > 0 {
		i--
		b[i] = byte('0' + v%10)
		v /= 10
	}
	return string(b[i:])
}

// TestUsedPredsCounted verifies predicate accounting.
func TestUsedPredsCounted(t *testing.T) {
	b := ptx.NewBuilder("preds")
	x := b.Reg(ptx.U32)
	p1, p2 := b.Reg(ptx.Pred), b.Reg(ptx.Pred)
	b.MovSpec(x, ptx.SpecTidX)
	b.Setp(ptx.CmpLt, ptx.U32, p1, ptx.R(x), ptx.Imm(4))
	b.Setp(ptx.CmpGt, ptx.U32, p2, ptx.R(x), ptx.Imm(8))
	b.If(p1, false).Add(ptx.U32, x, ptx.R(x), ptx.Imm(1))
	b.If(p2, true).Add(ptx.U32, x, ptx.R(x), ptx.Imm(2))
	b.Exit()
	res, err := Allocate(b.Kernel(), Options{Regs: 8})
	if err != nil {
		t.Fatal(err)
	}
	if res.UsedPreds != 2 {
		t.Errorf("UsedPreds = %d, want 2", res.UsedPreds)
	}
}
