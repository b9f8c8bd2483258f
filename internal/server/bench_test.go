package server

import (
	"context"
	"fmt"
	"testing"

	"crat/internal/emu/ptxgen"
	"crat/internal/ptx"
)

// BenchmarkCompileCold times the cache-miss compile behind the svc_cold
// and gw_mixed workloads: compileOnce on ptxgen bodies, verify on,
// backends crat+regdem, no cache directory, at block 64 (the block size
// both workloads generate) and at block 128. Each iteration parses its
// body afresh, so no per-kernel memo carries over between compiles. A
// per-layer CPU profile comes from
//
//	go test ./internal/server -run '^$' -bench CompileCold -cpuprofile cpu.out
func BenchmarkCompileCold(b *testing.B) {
	for _, block := range []int{64, 128} {
		b.Run(fmt.Sprintf("block%d", block), func(b *testing.B) { benchCompileCold(b, block) })
	}
}

func benchCompileCold(b *testing.B, block int) {
	s, err := New(Config{VerifyDefault: true, DefaultBackends: []string{"crat", "regdem"}})
	if err != nil {
		b.Fatal(err)
	}
	// The bodies of loadgen.Corpus(64, 1, block).
	jobs := make([]*compileJob, 64)
	for i := range jobs {
		k := ptxgen.Generate(ptxgen.Config{Seed: 1 + int64(i), Block: block})
		if jobs[i], err = s.normalize(CompileRequest{PTX: ptx.Print(k), Block: block}); err != nil {
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
