package gpusim

import (
	"runtime"
	"testing"
	"time"
)

// TestKernelInfoDiesWithKernel: simulated kernels are not pinned by their
// cached analysis. Once the kernel is unreachable its entry goes away; a
// kernelInfo that pointed back at its kernel would never be collected and
// fail this test.
func TestKernelInfoDiesWithKernel(t *testing.T) {
	func() {
		k := buildVecAdd()
		if _, err := NewSimulator(FermiConfig(), NewMemory(), Launch{Kernel: k, Grid: 1, Block: 32,
			Params: []uint64{0, 0, 0, 0}}); err != nil {
			t.Fatal(err)
		}
	}()
	if kernelInfos.Len() == 0 {
		t.Fatal("NewSimulator memoized nothing")
	}
	deadline := time.Now().Add(10 * time.Second)
	for kernelInfos.Len() > 0 {
		if time.Now().After(deadline) {
			t.Fatalf("%d entries still held 10s after their kernels became unreachable", kernelInfos.Len())
		}
		runtime.GC()
		time.Sleep(time.Millisecond)
	}
}
