package server

import (
	"context"
	"testing"

	"crat/internal/emu/ptxgen"
	"crat/internal/ptx"
)

// BenchmarkCompileCold times the cache-miss compile behind the svc_cold
// workload: compileOnce on ptxgen bodies at block 128, verify on, backends
// crat+regdem, no cache directory. Each iteration parses its body afresh,
// so no per-kernel memo carries over between compiles. A per-layer CPU
// profile comes from
//
//	go test ./internal/server -run '^$' -bench CompileCold -cpuprofile cpu.out
func BenchmarkCompileCold(b *testing.B) {
	s, err := New(Config{VerifyDefault: true, DefaultBackends: []string{"crat", "regdem"}})
	if err != nil {
		b.Fatal(err)
	}
	// The bodies of loadgen.Corpus(64, 1, 128).
	jobs := make([]*compileJob, 64)
	for i := range jobs {
		k := ptxgen.Generate(ptxgen.Config{Seed: 1 + int64(i), Block: 128})
		if jobs[i], err = s.normalize(CompileRequest{PTX: ptx.Print(k), Block: 128}); err != nil {
			b.Fatal(err)
		}
	}
	ctx := context.Background()
	i := 0
	for b.Loop() {
		if _, err := s.compileOnce(ctx, jobs[i%len(jobs)]); err != nil {
			b.Fatal(err)
		}
		i++
	}
}
