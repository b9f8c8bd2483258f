package passes

import (
	"runtime"
	"testing"
	"time"
)

// TestSharedEntryDiesWithKernel: the registry must not pin kernels. Once a
// kernel is unreachable its entry goes away; an analysis value that pointed
// back at its kernel would keep both alive forever and fail this test.
func TestSharedEntryDiesWithKernel(t *testing.T) {
	func() {
		if _, err := Shared(buildLoopKernel()); err != nil {
			t.Fatal(err)
		}
	}()
	if shared.Len() == 0 {
		t.Fatal("Shared memoized nothing")
	}
	deadline := time.Now().Add(10 * time.Second)
	for shared.Len() > 0 {
		if time.Now().After(deadline) {
			t.Fatalf("%d entries still held 10s after their kernels became unreachable", shared.Len())
		}
		runtime.GC()
		time.Sleep(time.Millisecond)
	}
}
