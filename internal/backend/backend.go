// Package backend defines the pluggable optimization-backend framework
// (ROADMAP item 3): a Backend is one strategy for turning an app's pruned
// (register budget, TLP) design points into compiled candidate kernels.
// The selection machinery in internal/core runs every enabled backend
// under one instrumented pass manager and picks over the *union* of their
// candidates with the same TPSC/oracle model, so competing strategies —
// CRAT's post-allocation spill relocation, RegDem's pre-allocation
// register demotion, future scratchpad sharing — are compared on equal
// footing and every winner is gated by the same differential oracle.
package backend

import (
	"errors"
	"fmt"
	"sort"
	"strings"

	"crat/internal/gpusim"
	"crat/internal/passes"
	"crat/internal/ptx"
	"crat/internal/regalloc"
	"crat/internal/spillopt"
)

// Point is one surviving (register budget, TLP) design point from the
// shared pruning pass. Backends compile one candidate per point; a point
// infeasible under a backend's strategy is silently dropped.
type Point struct {
	Reg, TLP int
}

// Request carries everything a backend needs to compile candidates for
// one app: the input kernel, the launch geometry, the architecture, and
// the pruned design points. The knobs mirror core.Options so ablations
// apply uniformly across backends.
type Request struct {
	// AppName labels diagnostics; it does not affect compilation.
	AppName string
	// Kernel is the virtual-register input kernel. Backends must not
	// modify it — clone before rewriting.
	Kernel *ptx.Kernel
	Arch   gpusim.Config
	// BlockSize is threads per block; ShmSize the kernel's own shared
	// memory use (both from core.Analysis).
	BlockSize int
	ShmSize   int64
	// OptTLP is the coordinated TLP bound the points were pruned against.
	OptTLP int
	// Points are the design points to compile, in pruning order.
	Points []Point
	// Knobs forwarded from core.Options. Unweighted drops the loop-depth
	// weighting of spill costs and of placement and demotion gains.
	Coalesce   bool
	Split      spillopt.Split
	Unweighted bool
	// Input is the compile's shared work on Kernel (core builds one per
	// compile). Nil gives each Candidates call a private one.
	Input *Input
}

// allocOptions returns the allocator options of a candidate at pt.
func (req Request) allocOptions(pt Point) regalloc.Options {
	return regalloc.Options{
		Regs:                pt.Reg,
		Coalesce:            req.Coalesce,
		UnweightedSpillCost: req.Unweighted,
	}
}

// input returns req.Input, or a fresh Input for req.Kernel.
func (req Request) input() *Input {
	if req.Input != nil {
		return req.Input
	}
	return NewInput(passes.NewAnalysisManager(req.Kernel))
}

// Input is what one compile computes once on its input kernel and shares
// across the backends: the kernel's analysis manager, and its allocations
// keyed by regalloc.Options. Every backend that allocates the unmodified
// kernel (crat and crat-local at every point, regdem at a point where it
// demotes nothing) asks Allocate, so each (point, options) is allocated
// once per compile. A returned *regalloc.Result is shared: nothing may
// mutate it. Backends run one after another, so Input takes no lock.
type Input struct {
	am     *passes.AnalysisManager
	allocs map[regalloc.Options]allocation
}

// allocation is one memoized Allocate outcome.
type allocation struct {
	res *regalloc.Result
	err error
}

// NewInput starts a compile's shared work on am's kernel, reusing
// whatever am has already computed.
func NewInput(am *passes.AnalysisManager) *Input {
	return &Input{am: am, allocs: make(map[regalloc.Options]allocation)}
}

// Analyses returns the input kernel's manager. Callers read it or Fork
// it; no transforming pass runs on it.
func (in *Input) Analyses() *passes.AnalysisManager { return in.am }

// Allocate returns the allocation of the input kernel under opts, running
// it under pm the first time opts is asked for; an error is memoized too.
func (in *Input) Allocate(pm *passes.Manager, opts regalloc.Options) (*regalloc.Result, error) {
	if a, ok := in.allocs[opts]; ok {
		return a.res, a.err
	}
	res, err := regalloc.AllocateWith(pm, in.am, opts)
	in.allocs[opts] = allocation{res, err}
	return res, err
}

// Candidate is one compiled design point produced by a backend, carrying
// the metadata the TPSC model and the oracle selector consume.
type Candidate struct {
	// Backend names the strategy that produced this candidate.
	Backend string
	// Reg/TLP are the design point (Reg is the budget; the final kernel
	// may use fewer registers).
	Reg, TLP int
	// Alloc is the register allocation of the (possibly rewritten)
	// kernel. Always set.
	Alloc *regalloc.Result
	// Spill is the shared-memory spilling optimization outcome (CRAT
	// backend only; nil otherwise).
	Spill *spillopt.Result
	// Overhead summarizes the final kernel's spill instructions — the
	// TPSC model's per-candidate input.
	Overhead ptx.SpillOverhead
	// Demoted counts virtual registers rewritten to shared memory before
	// allocation (regdem backend; 0 otherwise).
	Demoted int
}

// Kernel returns the executable kernel of the candidate.
func (c Candidate) Kernel() *ptx.Kernel {
	if c.Spill != nil {
		return c.Spill.Alloc.Kernel
	}
	return c.Alloc.Kernel
}

// UsedRegs returns the per-thread register usage of the final kernel.
func (c Candidate) UsedRegs() int {
	if c.Spill != nil {
		return c.Spill.Alloc.UsedRegs
	}
	return c.Alloc.UsedRegs
}

// PassInfo names one backend-owned pipeline pass for tooling
// (cratc -passes).
type PassInfo struct {
	Name string
	Desc string
}

// Backend is one candidate-generation strategy. Implementations must be
// deterministic (same Request, same candidates) and must run every
// kernel-transforming stage under the provided pass manager so the
// caller's instrumentation (verify-after-every-pass, dumps, timing)
// covers them.
type Backend interface {
	// Name is the stable identifier used in flags, cache keys, Decision
	// records, and figures.
	Name() string
	// Description is a one-line summary for listings.
	Description() string
	// Passes lists the backend's pipeline passes in execution order.
	Passes() []PassInfo
	// Candidates compiles the request's design points. Infeasible points
	// are dropped; a returned error is a hard pipeline fault (see
	// IsPipelineFault) or an environment failure, never mere
	// infeasibility.
	Candidates(pm *passes.Manager, req Request) ([]Candidate, error)
}

// registry holds the registered backends in name order.
var registry = map[string]Backend{}

// Register adds a backend to the process-wide registry. It panics on a
// duplicate name: backends register from init functions, so a collision
// is a programming error.
func Register(b Backend) {
	name := b.Name()
	if _, dup := registry[name]; dup {
		panic(fmt.Sprintf("backend: duplicate registration of %q", name))
	}
	registry[name] = b
}

// Lookup returns the named backend.
func Lookup(name string) (Backend, bool) {
	b, ok := registry[name]
	return b, ok
}

// Names lists the registered backends in sorted (deterministic) order.
func Names() []string {
	out := make([]string, 0, len(registry))
	for name := range registry {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// Resolve maps a backend name list to Backend values, erroring on
// unknown names with the valid set in the message.
func Resolve(names []string) ([]Backend, error) {
	out := make([]Backend, 0, len(names))
	for _, name := range names {
		b, ok := Lookup(name)
		if !ok {
			return nil, fmt.Errorf("backend: unknown backend %q (have %v)", name, Names())
		}
		out = append(out, b)
	}
	return out, nil
}

// SplitNames parses a comma-separated backend list (a -backend flag),
// dropping empty elements so "a,,b" and trailing commas are forgiven.
func SplitNames(s string) []string {
	var out []string
	for _, name := range strings.Split(s, ",") {
		if name = strings.TrimSpace(name); name != "" {
			out = append(out, name)
		}
	}
	return out
}

// IsPipelineFault separates hard pipeline failures (a pass produced
// unverifiable IR) from ordinary per-candidate infeasibility
// (regalloc.ErrInfeasible and friends), which backends absorb by dropping
// the design point.
func IsPipelineFault(err error) bool {
	var verr *ptx.VerifyError
	return errors.As(err, &verr)
}

// SpareShm computes the spare shared memory per block at a given TLP: the
// slack a backend may consume for spilled or demoted values without
// changing the TLP (paper §5.3: "only utilizes the spare shared memory
// for spilling").
func SpareShm(arch gpusim.Config, shmUsed int64, tlp int) int64 {
	if tlp <= 0 {
		return 0
	}
	perBlock := int64(arch.SharedMemBytes) / int64(tlp)
	if perBlock > int64(arch.MaxSharedPerBlock) {
		perBlock = int64(arch.MaxSharedPerBlock)
	}
	spare := perBlock - shmUsed
	if spare < 0 {
		return 0
	}
	return spare
}
