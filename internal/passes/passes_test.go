package passes

import (
	"errors"
	"reflect"
	"strings"
	"testing"

	"crat/internal/cfg"
	"crat/internal/ptx"
)

// buildLoopKernel builds the same loop shape the cfg tests use:
//
//	r0 = 0; r1 = n
//	LOOP: p = r0 >= r1 ; @p bra DONE
//	  r2 = r0 * 2
//	  r0 = r0 + 1
//	  bra LOOP
//	DONE: exit
func buildLoopKernel() *ptx.Kernel {
	b := ptx.NewBuilder("loop")
	b.Param("n", ptx.U32)
	r0 := b.Reg(ptx.U32)
	r1 := b.Reg(ptx.U32)
	r2 := b.Reg(ptx.U32)
	p := b.Reg(ptx.Pred)
	b.Mov(ptx.U32, r0, ptx.Imm(0))
	b.LdParam(ptx.U32, r1, "n")
	b.Label("LOOP").Setp(ptx.CmpGe, ptx.U32, p, ptx.R(r0), ptx.R(r1))
	b.BraIf(p, false, "DONE")
	b.Mul(ptx.U32, r2, ptx.R(r0), ptx.Imm(2))
	b.Add(ptx.U32, r0, ptx.R(r0), ptx.Imm(1))
	b.Bra("LOOP")
	b.Label("DONE").Exit()
	return b.Kernel()
}

func TestAnalysisCachingAndInvalidation(t *testing.T) {
	k := buildLoopKernel()
	am := NewAnalysisManager(k)

	for i := 0; i < 3; i++ {
		if _, err := am.CFG(); err != nil {
			t.Fatal(err)
		}
		if _, err := am.Liveness(); err != nil {
			t.Fatal(err)
		}
		if _, err := am.Dominators(); err != nil {
			t.Fatal(err)
		}
		if _, err := am.Reconvergence(); err != nil {
			t.Fatal(err)
		}
		am.UseDef()
		if _, err := am.InstLoopDepth(); err != nil {
			t.Fatal(err)
		}
	}
	for _, kind := range []Kind{KindCFG, KindLiveness, KindDominators, KindReconvergence, KindUseDef, KindLoopDepth} {
		if got := am.Computes[kind]; got != 1 {
			t.Errorf("%v computed %d times on an unchanged kernel, want 1", kind, got)
		}
	}

	// Invalidating a derived analysis leaves the CFG cached.
	v := am.Version()
	am.Invalidate(KindLiveness)
	if am.Version() == v {
		t.Error("Invalidate did not advance the version")
	}
	if _, err := am.Liveness(); err != nil {
		t.Fatal(err)
	}
	if am.Computes[KindLiveness] != 2 {
		t.Errorf("liveness computes = %d after invalidation, want 2", am.Computes[KindLiveness])
	}
	if am.Computes[KindCFG] != 1 {
		t.Errorf("cfg recomputed (%d) by a liveness-only invalidation", am.Computes[KindCFG])
	}

	// Invalidating the CFG cascades to every derived analysis but spares
	// use-def, which depends only on the instruction list.
	am.Invalidate(KindCFG)
	if _, err := am.Reconvergence(); err != nil {
		t.Fatal(err)
	}
	am.UseDef()
	if am.Computes[KindReconvergence] != 2 {
		t.Errorf("reconvergence computes = %d after CFG invalidation, want 2", am.Computes[KindReconvergence])
	}
	if am.Computes[KindUseDef] != 1 {
		t.Errorf("use-def recomputed (%d) by a CFG invalidation", am.Computes[KindUseDef])
	}

	// Replace drops everything.
	am.Replace(k.Clone())
	am.UseDef()
	if am.Computes[KindUseDef] != 2 {
		t.Errorf("use-def computes = %d after Replace, want 2", am.Computes[KindUseDef])
	}
}

func TestAnalysesMatchDirectComputation(t *testing.T) {
	k := buildLoopKernel()
	am := NewAnalysisManager(k)

	g, err := cfg.Build(k)
	if err != nil {
		t.Fatal(err)
	}
	doms, err := am.Dominators()
	if err != nil {
		t.Fatal(err)
	}
	if want := g.Dominators(); !reflect.DeepEqual(doms, want) {
		t.Errorf("Dominators = %v, want %v", doms, want)
	}
	pdoms, err := am.PostDominators()
	if err != nil {
		t.Fatal(err)
	}
	if want := g.PostDominators(); !reflect.DeepEqual(pdoms, want) {
		t.Errorf("PostDominators = %v, want %v", pdoms, want)
	}
	depth, err := am.InstLoopDepth()
	if err != nil {
		t.Fatal(err)
	}
	if want := g.InstLoopDepth(); !reflect.DeepEqual(depth, want) {
		t.Errorf("InstLoopDepth = %v, want %v", depth, want)
	}

	rc, err := am.Reconvergence()
	if err != nil {
		t.Fatal(err)
	}
	reconvMap := g.ReconvergencePoints()
	for pc, want := range reconvMap {
		if rc.Reconv[pc] != want {
			t.Errorf("Reconv[%d] = %d, want %d", pc, rc.Reconv[pc], want)
		}
	}
	for pc, r := range rc.Reconv {
		if _, ok := reconvMap[pc]; !ok && r != -1 {
			t.Errorf("Reconv[%d] = %d, want -1 (not a conditional branch)", pc, r)
		}
	}

	ud := am.UseDef()
	var buf []ptx.Reg
	for i := range k.Insts {
		in := &k.Insts[i]
		buf = in.Uses(buf[:0])
		if len(buf) != len(ud.Uses[i]) {
			t.Fatalf("Uses[%d] = %v, want %v", i, ud.Uses[i], buf)
		}
		for j := range buf {
			if buf[j] != ud.Uses[i][j] {
				t.Fatalf("Uses[%d] = %v, want %v", i, ud.Uses[i], buf)
			}
		}
		wantDef := ptx.NoReg
		if in.Dst.Kind == ptx.OperandReg {
			wantDef = in.Dst.Reg
		}
		if ud.Defs[i] != wantDef {
			t.Errorf("Defs[%d] = %d, want %d", i, ud.Defs[i], wantDef)
		}
	}
}

func TestSharedRegistry(t *testing.T) {
	k := buildLoopKernel()
	a1, err := Shared(k)
	if err != nil {
		t.Fatal(err)
	}
	a2, err := Shared(k)
	if err != nil {
		t.Fatal(err)
	}
	if a1 != a2 {
		t.Error("Shared returned different objects for the same kernel identity")
	}

	// A clone is a different identity and gets its own (equal) analyses.
	ac, err := Shared(k.Clone())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a1.Targets, ac.Targets) || !reflect.DeepEqual(a1.Reconv, ac.Reconv) {
		t.Error("clone analyses differ from the original's")
	}

	// In-place growth is detected by the staleness guard.
	kg := buildLoopKernel()
	if _, err := Shared(kg); err != nil {
		t.Fatal(err)
	}
	kg.Append(ptx.Inst{Op: ptx.OpNop, Guard: ptx.NoReg})
	ag, err := Shared(kg)
	if err != nil {
		t.Fatal(err)
	}
	if len(ag.Targets) != len(kg.Insts) {
		t.Errorf("stale analyses served after in-place growth: len(Targets)=%d, want %d",
			len(ag.Targets), len(kg.Insts))
	}

	// A malformed CFG surfaces cfg.Build's error, unwrapped.
	kb := buildLoopKernel()
	kb.Append(ptx.Inst{Op: ptx.OpBra, Target: "NOWHERE", Guard: ptx.NoReg})
	if _, err := Shared(kb); err == nil || !strings.Contains(err.Error(), "cfg:") {
		t.Errorf("Shared on broken CFG: err = %v, want cfg error", err)
	}
}

func TestManagerRunsPipeline(t *testing.T) {
	k := buildLoopKernel()
	am := NewAnalysisManager(k)
	m := &Manager{VerifyEach: true}

	var order []string
	mk := func(name string, needs []Kind, body func(k *ptx.Kernel, am *AnalysisManager) error) Pass {
		return Fn{PassName: name, Needs: needs, Body: func(k *ptx.Kernel, am *AnalysisManager) error {
			order = append(order, name)
			if body != nil {
				return body(k, am)
			}
			return nil
		}}
	}
	grow := Fn{PassName: "grow", Clobbers: []Kind{KindCFG, KindUseDef},
		Body: func(k *ptx.Kernel, am *AnalysisManager) error {
			order = append(order, "grow")
			k.Insts = append(k.Insts[:len(k.Insts):len(k.Insts)], ptx.Inst{Op: ptx.OpNop, Guard: ptx.NoReg})
			return nil
		}}

	err := m.Run(am,
		mk("read-liveness", []Kind{KindLiveness}, nil),
		grow,
		mk("read-again", []Kind{KindLiveness}, nil),
	)
	if err != nil {
		t.Fatal(err)
	}
	if want := []string{"read-liveness", "grow", "read-again"}; !reflect.DeepEqual(order, want) {
		t.Errorf("pass order = %v, want %v", order, want)
	}
	if len(m.Events) != 3 {
		t.Fatalf("events = %d, want 3", len(m.Events))
	}
	ge := m.Events[1]
	if ge.Pass != "grow" || ge.InstsAfter != ge.InstsBefore+1 || !ge.Changed {
		t.Errorf("grow event = %+v, want +1 inst and Changed", ge)
	}
	if m.Events[0].Changed {
		t.Errorf("analysis-only pass marked Changed: %+v", m.Events[0])
	}
	// The declared invalidation forced liveness to be rebuilt for pass 3.
	if am.Computes[KindLiveness] != 2 {
		t.Errorf("liveness computes = %d, want 2 (rebuilt after grow)", am.Computes[KindLiveness])
	}
}

func TestManagerVerifyEachNamesThePass(t *testing.T) {
	k := buildLoopKernel()
	am := NewAnalysisManager(k)
	m := &Manager{VerifyEach: true}
	breaker := Fn{PassName: "breaker", Body: func(k *ptx.Kernel, am *AnalysisManager) error {
		k.Insts[0].Dst.Reg = ptx.Reg(k.NumRegs() + 7)
		return nil
	}}
	err := m.Run(am, breaker)
	if err == nil {
		t.Fatal("verify-after-pass accepted a broken kernel")
	}
	if !strings.Contains(err.Error(), "breaker") {
		t.Errorf("verify failure does not name the pass: %v", err)
	}
	var verr *ptx.VerifyError
	if !errors.As(err, &verr) {
		t.Errorf("verify failure is not a *ptx.VerifyError: %v", err)
	}
}

func TestManagerReturnsPassErrorsUnwrapped(t *testing.T) {
	sentinel := errors.New("sentinel failure")
	k := buildLoopKernel()
	m := &Manager{}
	err := m.Run(NewAnalysisManager(k),
		Fn{PassName: "fails", Body: func(k *ptx.Kernel, am *AnalysisManager) error { return sentinel }})
	if err != sentinel {
		t.Errorf("pass error was wrapped: %v", err)
	}
}

func TestGlobalWrapDecoratesEveryPass(t *testing.T) {
	var seen []string
	SetGlobalWrap(func(p Pass) Pass {
		return After(p, func(k *ptx.Kernel, am *AnalysisManager) error {
			seen = append(seen, Inner(p).Name())
			return nil
		})
	})
	defer SetGlobalWrap(nil)

	k := buildLoopKernel()
	m := &Manager{}
	err := m.Run(NewAnalysisManager(k),
		Fn{PassName: "a", Body: func(k *ptx.Kernel, am *AnalysisManager) error { return nil }},
		Fn{PassName: "b", Body: func(k *ptx.Kernel, am *AnalysisManager) error { return nil }},
	)
	if err != nil {
		t.Fatal(err)
	}
	if want := []string{"a", "b"}; !reflect.DeepEqual(seen, want) {
		t.Errorf("wrapped passes = %v, want %v", seen, want)
	}
}

func TestTimingRegistry(t *testing.T) {
	// The registry is process-wide and other tests run passes too, so count
	// this pass's runs before and after.
	runs := func() int {
		for _, tm := range Timings() {
			if tm.Pass == "timed" {
				return tm.Runs
			}
		}
		return 0
	}
	before := runs()
	k := buildLoopKernel()
	m := &Manager{}
	p := Fn{PassName: "timed", Body: func(k *ptx.Kernel, am *AnalysisManager) error { return nil }}
	if err := m.Run(NewAnalysisManager(k), p, p); err != nil {
		t.Fatal(err)
	}
	if got := runs() - before; got != 2 {
		t.Errorf("pass %q recorded %d runs, want 2", "timed", got)
	}
}
