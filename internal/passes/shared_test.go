package passes

import (
	"runtime"
	"testing"
	"time"
	"weak"

	"crat/internal/ptx"
)

// TestSharedEntryDiesWithKernel: the analyses Shared builds must not pin
// their kernel. The per-kernel program cache (vec.ProgramFor) keeps what it
// lowers from them for as long as the kernel lives; an analysis value that
// pointed back at its kernel would keep both alive forever and fail this
// test, which holds the analyses and waits for the kernel to be collected.
func TestSharedEntryDiesWithKernel(t *testing.T) {
	var a *KernelAnalyses
	wk := func() weak.Pointer[ptx.Kernel] {
		k := buildLoopKernel()
		var err error
		if a, err = Shared(k); err != nil {
			t.Fatal(err)
		}
		return weak.Make(k)
	}()
	deadline := time.Now().Add(10 * time.Second)
	for wk.Value() != nil {
		if time.Now().After(deadline) {
			t.Fatal("kernel still reachable 10s after only its analyses were kept")
		}
		runtime.GC()
		time.Sleep(time.Millisecond)
	}
	runtime.KeepAlive(a)
}
