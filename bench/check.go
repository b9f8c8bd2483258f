package main

import (
	"crypto/sha256"
	"fmt"
	"os"
	"sync"

	"crat/internal/oracle"
	"crat/internal/ptx"
	"crat/internal/server"
)

// outcome is what a compile decided, in the form both the opaque op and
// the staged replay can produce, so the two can be compared.
type outcome struct {
	Reg, TLP int
	Backend  string
	PTXSum   string // sha256 of the emitted PTX text
}

func ptxSum(text string) string { return fmt.Sprintf("%x", sha256.Sum256([]byte(text))) }

func responseOutcome(cr *server.CompileResponse) outcome {
	return outcome{Reg: cr.Reg, TLP: cr.TLP, Backend: cr.Backend, PTXSum: ptxSum(cr.PTX)}
}

// decisionDigest canonicalises the content-addressed fields of a response
// (everything but the per-serve cached/cache_tier/elapsed_ms stamps).
// Every serve of one key — cold, memory hit, persistent hit, through the
// gateway — must produce the same digest.
func decisionDigest(cr *server.CompileResponse) string {
	return fmt.Sprintf("kernel=%s arch=%s reg=%d tlp=%d candidates=%d profile_runs=%d backend=%s degraded=%t divergence=%q ptx=%s",
		cr.Kernel, cr.Arch, cr.Reg, cr.TLP, cr.Candidates, cr.ProfileRuns, cr.Backend,
		cr.Degraded, cr.Divergence, ptxSum(cr.PTX))
}

// checker counts failed ops. An op fails on an error, a non-200, an
// unexpected degraded reply, a digest that differs from an earlier serve
// of the same key, or a failed output check.
type checker struct {
	mu      sync.Mutex
	digests map[int]string // request key -> digest of its first serve
	failed  int
	shown   int
}

func newChecker() *checker { return &checker{digests: make(map[int]string)} }

// fail counts one failed op; the first few are explained on stderr.
func (c *checker) fail(format string, args ...any) {
	c.mu.Lock()
	c.failed++
	show := c.shown < 8
	c.shown++
	c.mu.Unlock()
	if show {
		fmt.Fprintf(os.Stderr, "cratbench: FAILED op: "+format+"\n", args...)
	}
}

func (c *checker) failures() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.failed
}

// served records one serve of key and fails the op when its digest
// disagrees with the key's first serve.
func (c *checker) served(key int, digest string) bool {
	c.mu.Lock()
	first, seen := c.digests[key]
	if !seen {
		c.digests[key] = digest
	}
	c.mu.Unlock()
	if seen && first != digest {
		c.fail("key %d served two decisions:\n  first: %s\n  now:   %s", key, first, digest)
		return false
	}
	return true
}

// oracleSeed seeds the inputs of the benchmark's own output checks; it is
// deliberately not the server's default verify seed, so the check is not
// a replay of the one the service already ran.
const oracleSeed = 0x5eed

// checkOutput executes the original input kernel and the kernel the
// system emitted on identical generated inputs through internal/emu and
// compares final memory. The reference is always the untouched input run
// by the independent interpreter, never the compiler's own output.
func checkOutput(inputPTX, outputPTX string, grid, block int) error {
	ref, err := ptx.Parse(inputPTX)
	if err != nil {
		return fmt.Errorf("reparsing the input: %w", err)
	}
	got, err := ptx.Parse(outputPTX)
	if err != nil {
		return fmt.Errorf("reparsing the emitted PTX: %w", err)
	}
	if grid <= 0 {
		grid = 1
	}
	div, err := oracle.Check(ref, got, "cratbench", oracle.Options{Grid: grid, Block: block, Seed: oracleSeed})
	if err != nil {
		return err
	}
	if div != nil {
		return div
	}
	return nil
}
