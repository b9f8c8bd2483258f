package gpusim

import (
	"runtime"
	"testing"
	"time"
	"weak"

	"crat/internal/ptx"
)

// TestKernelInfoDiesWithKernel: simulated kernels are not pinned by their
// cached analysis. NewSimulator memoizes the kernel's program in
// vec.ProgramFor; once the kernel is unreachable it must be collected. A
// cached program that pointed back at its kernel would never let go of it
// and fail this test.
func TestKernelInfoDiesWithKernel(t *testing.T) {
	wk := func() weak.Pointer[ptx.Kernel] {
		k := buildVecAdd()
		if _, err := NewSimulator(FermiConfig(), NewMemory(), Launch{Kernel: k, Grid: 1, Block: 32,
			Params: []uint64{0, 0, 0, 0}}); err != nil {
			t.Fatal(err)
		}
		return weak.Make(k)
	}()
	deadline := time.Now().Add(10 * time.Second)
	for wk.Value() != nil {
		if time.Now().After(deadline) {
			t.Fatal("kernel still reachable 10s after its last simulation was dropped")
		}
		runtime.GC()
		time.Sleep(time.Millisecond)
	}
}
