package ptx_test

import (
	"testing"

	"crat/internal/emu/ptxgen"
	"crat/internal/ptx"
)

// coldKernels returns the ptxgen kernels behind BenchmarkCompileCold (the
// bodies of loadgen.Corpus(64, 1, 128)): seeds 1 to 64 at block 128.
func coldKernels() []*ptx.Kernel {
	ks := make([]*ptx.Kernel, 64)
	for i := range ks {
		ks[i] = ptxgen.Generate(ptxgen.Config{Seed: 1 + int64(i), Block: 128})
	}
	return ks
}

// BenchmarkPrint times printing one cold-compile kernel as a module, the
// text a compile reply and the compile cache carry.
func BenchmarkPrint(b *testing.B) {
	mods := make([]*ptx.Module, 0, 64)
	for _, k := range coldKernels() {
		mods = append(mods, &ptx.Module{Kernels: []*ptx.Kernel{k}})
	}
	b.ReportAllocs()
	i := 0
	for b.Loop() {
		ptx.PrintModule(mods[i%len(mods)])
		i++
	}
}

// BenchmarkParseModule times parsing one cold-compile request body, the
// first step of every cache-miss compile.
func BenchmarkParseModule(b *testing.B) {
	var srcs []string
	for _, k := range coldKernels() {
		srcs = append(srcs, ptx.Print(k))
	}
	b.ReportAllocs()
	i := 0
	for b.Loop() {
		if _, err := ptx.ParseModule(srcs[i%len(srcs)]); err != nil {
			b.Fatal(err)
		}
		i++
	}
}
