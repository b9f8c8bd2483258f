// Package oracle is the differential semantic-equivalence gate of the CRAT
// pipeline. It executes a reference kernel and a transformed variant on
// identical generated (or caller-supplied) inputs through the functional
// emulator (internal/emu) and diffs the final global-memory images. The
// pipeline's rewrites — register allocation, spill-stack insertion,
// shared-memory spill placement — must be semantically invisible; any
// observable difference is reported as a structured Divergence that
// localizes the first diverging byte to the stores that produced it.
package oracle

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"sync"

	"crat/internal/emu"
	"crat/internal/ptx"
	"crat/internal/sem"
)

// DefaultRuns is the number of generated input sets Check executes when
// Options.Runs is zero. Differential testing gains little past a few seeds
// on these kernels (control flow depends on thread ids more than data), so
// the default favours pipeline latency.
const DefaultRuns = 2

// Options configures one equivalence check.
type Options struct {
	// Grid and Block give the launch shape (both required).
	Grid, Block int
	// Runs is the number of independently-seeded input sets (0 =
	// DefaultRuns).
	Runs int
	// Seed is the base input-generation seed; run r uses Seed+r.
	Seed int64
	// Setup, when non-nil, replaces generated inputs: it must populate the
	// memory and return the launch parameter values, deterministically.
	// (core.App.Setup satisfies this contract.)
	Setup func(*sem.Memory) []uint64
	// MaxWarpInsts bounds each emulated execution (0 = emulator default).
	MaxWarpInsts int64
}

func (o Options) runs() int {
	if o.Runs <= 0 {
		return DefaultRuns
	}
	return o.Runs
}

// Divergence reports a semantic mismatch between a reference kernel and a
// transformed variant. It implements error so the pipeline and harness can
// thread it through existing fault plumbing.
type Divergence struct {
	Kernel string // kernel name
	Stage  string // which rewrite produced the variant ("regalloc", "spillopt", ...)
	Run    int    // input-set index that exposed the mismatch

	// Addr is the first (lowest) diverging global byte; RefByte/VarByte its
	// contents in each image.
	Addr             uint64
	RefByte, VarByte byte
	// RefStore/VarStore localize the divergence: the provenance (PC, block,
	// warp, lane, value) of the last store to Addr in each execution. Nil
	// when that execution never stored the byte.
	RefStore, VarStore *emu.Store
	// VarFault is set instead of the byte/store fields when the variant
	// faulted outright (the reference did not).
	VarFault error
}

func describeStore(s *emu.Store) string {
	if s == nil {
		return "never stored"
	}
	return fmt.Sprintf("pc=%d block=%d warp=%d lane=%d value=%#x", s.PC, s.Block, s.Warp, s.Lane, s.Value)
}

func (d *Divergence) Error() string {
	if d.VarFault != nil {
		return fmt.Sprintf("oracle: divergence in %s after %s (run %d): variant faulted: %v",
			d.Kernel, d.Stage, d.Run, d.VarFault)
	}
	return fmt.Sprintf("oracle: divergence in %s after %s (run %d): global[%#x] ref=%#x var=%#x; ref %s; var %s",
		d.Kernel, d.Stage, d.Run, d.Addr, d.RefByte, d.VarByte,
		describeStore(d.RefStore), describeStore(d.VarStore))
}

func (d *Divergence) Unwrap() error { return d.VarFault }

// rngs holds GenInputs' generators: reseeding one yields the same sequence
// as a fresh rand.NewSource(seed), without allocating a new source's 4.9 KB
// state per input set.
var rngs = sync.Pool{New: func() any { return rand.New(rand.NewSource(0)) }}

// GenInputs deterministically builds a memory image and parameter values
// from a kernel's signature: every 64-bit parameter is treated as a device
// pointer and given a seeded buffer sized for one 8-byte element per thread
// (covering any access scale the pipeline's kernels use); narrower
// parameters become bounded scalars. Buffer words alternate between small
// float bit patterns and raw integers so both float and integer kernels see
// varied data.
func GenInputs(k *ptx.Kernel, grid, block int, seed int64) (*sem.Memory, []uint64) {
	rng := rngs.Get().(*rand.Rand)
	defer rngs.Put(rng)
	rng.Seed(seed)
	mem := sem.NewMemory()
	n := grid * block
	params := make([]uint64, len(k.Params))
	buf := make([]byte, 8*n) // one buffer's words, stored with one WriteBytes
	for i, p := range k.Params {
		if p.Type.Bits() == 64 && !p.Type.IsFloat() {
			// The 4MB slack after each buffer keeps stray in-bounds-but-long
			// strides (grid-stride loops, multi-word elements) from landing
			// in the next buffer; sparse pages make the slack free.
			base := mem.Alloc(int64(8*n) + 4<<20)
			for w := 0; w < 2*n; w++ {
				var v uint32
				if w%2 == 0 {
					v = uint32(sem.F32Bits(float32(rng.Intn(2048)) / 16))
				} else {
					v = rng.Uint32()
				}
				binary.LittleEndian.PutUint32(buf[4*w:], v)
			}
			mem.WriteBytes(base, buf)
			params[i] = base
			continue
		}
		if p.Type.IsFloat() {
			params[i] = sem.ImmBits(ptx.FImm(float64(rng.Intn(1024))/8), p.Type)
			continue
		}
		params[i] = uint64(rng.Intn(1 << 16))
	}
	return mem, params
}

// Variant pairs a stage label with a transformed kernel.
type Variant struct {
	Stage  string
	Kernel *ptx.Kernel
}

// Check runs variant against ref on identically-seeded inputs and returns a
// Divergence describing the first mismatch, or nil when all runs agree.
// A non-nil error means the check itself could not be performed (the
// reference faulted, or the launch is malformed) — distinct from the
// variant being wrong.
func Check(ref, variant *ptx.Kernel, stage string, opts Options) (*Divergence, error) {
	return CheckVariants(ref, []Variant{{Stage: stage, Kernel: variant}}, opts)
}

// CheckVariants runs the reference once per input set and compares every
// variant's final global memory against it. Variants that are nil or the
// reference kernel itself are skipped. The first divergence (in variant
// order, earliest run) is returned.
func CheckVariants(ref *ptx.Kernel, variants []Variant, opts Options) (*Divergence, error) {
	if opts.Grid <= 0 || opts.Block <= 0 {
		return nil, fmt.Errorf("oracle: grid=%d block=%d must be positive", opts.Grid, opts.Block)
	}
	runs := opts.runs()
	if opts.Setup != nil {
		// A Setup provider is deterministic per call: repeated runs would
		// replay the identical input set.
		runs = 1
	}
	for run := 0; run < runs; run++ {
		var mem *sem.Memory
		var params []uint64
		if opts.Setup != nil {
			mem = sem.NewMemory()
			params = opts.Setup(mem)
		} else {
			mem, params = GenInputs(ref, opts.Grid, opts.Block, opts.Seed+int64(run))
		}
		exec := func(k *ptx.Kernel, provenance bool) (*sem.Memory, *emu.Result, error) {
			out := mem.Clone()
			res, err := emu.Run(emu.Launch{
				Kernel: k, Grid: opts.Grid, Block: opts.Block,
				Params: params, MaxWarpInsts: opts.MaxWarpInsts, Provenance: provenance,
			}, out)
			return out, res, err
		}
		refMem, _, err := exec(ref, false)
		if err != nil {
			return nil, fmt.Errorf("oracle: reference %s failed on run %d: %w", ref.Name, run, err)
		}
		for _, v := range variants {
			if v.Kernel == nil || v.Kernel == ref {
				continue
			}
			varMem, _, err := exec(v.Kernel, false)
			if err != nil {
				return &Divergence{Kernel: ref.Name, Stage: v.Stage, Run: run, VarFault: err}, nil
			}
			if addr, a, b, diff := refMem.DiffFirst(varMem); diff {
				d := &Divergence{
					Kernel: ref.Name, Stage: v.Stage, Run: run,
					Addr: addr, RefByte: a, VarByte: b,
				}
				// Provenance costs a map entry per stored byte, so only a
				// divergence pays for it: both executions are deterministic,
				// and re-running them with provenance on reproduces them.
				_, refRes, _ := exec(ref, true)
				_, varRes, _ := exec(v.Kernel, true)
				if s, ok := refRes.LastStore[addr]; ok {
					d.RefStore = &s
				}
				if s, ok := varRes.LastStore[addr]; ok {
					d.VarStore = &s
				}
				return d, nil
			}
		}
	}
	return nil, nil
}

// CheckChain verifies the pipeline's rewrite chain: original vs the
// register-allocated kernel (stage "regalloc") and original vs the final
// spill-optimized kernel (stage "spillopt", skipped when final is nil or
// a kernel already checked). The reference executes once per input set.
func CheckChain(original, allocated, final *ptx.Kernel, opts Options) (*Divergence, error) {
	variants := []Variant{{Stage: "regalloc", Kernel: allocated}}
	if final != allocated {
		variants = append(variants, Variant{Stage: "spillopt", Kernel: final})
	}
	return CheckVariants(original, variants, opts)
}
