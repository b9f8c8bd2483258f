package server

import (
	"fmt"
	"strings"
	"time"

	"context"

	"crat/internal/backend"
	"crat/internal/checkpoint"
	"crat/internal/core"
	"crat/internal/gpusim"
	"crat/internal/ptx"
)

// cacheSchema versions the compile semantics the persistent cache assumes.
// Bump it whenever the pipeline's output for identical inputs can change
// (new pass ordering, different TPSC model, ...): a restarted daemon then
// discards the stale warm tier instead of replaying wrong Decisions.
const cacheSchema = "cratd/v2"

// maxPTXBytes bounds a request's PTX payload; beyond this the request is
// rejected up front rather than admitted and parsed.
const maxPTXBytes = 4 << 20

// CompileRequest is the POST /v1/compile body.
type CompileRequest struct {
	// PTX is the module source (required).
	PTX string `json:"ptx"`
	// Kernel selects a kernel when the module has several (optional when
	// the module has exactly one).
	Kernel string `json:"kernel,omitempty"`
	// Arch is "fermi" (default) or "kepler".
	Arch string `json:"arch,omitempty"`
	// Block is the thread-block size (required, > 0).
	Block int `json:"block"`
	// Grid is the launch's block count, used by oracle verification
	// executions (default 1).
	Grid int `json:"grid,omitempty"`
	// OptTLP pins the optimal TLP. 0 uses the static occupancy bound at
	// the default register budget — the daemon has no input data to
	// profile with, mirroring cratc.
	OptTLP int `json:"opttlp,omitempty"`
	// NoSharedSpill disables the shared-memory spilling optimization
	// (ModeCRATLocal semantics).
	NoSharedSpill bool `json:"no_shared_spill,omitempty"`
	// Coalesce enables the copy-coalescing pre-pass.
	Coalesce bool `json:"coalesce,omitempty"`
	// Backends selects the optimization backends whose candidates compete
	// under the TPSC selection. Order matters (full TPSC ties break toward
	// the earlier-listed backend), so it is never sorted. Empty uses the
	// daemon's configured default (itself empty = mode-implied CRAT).
	Backends []string `json:"backends,omitempty"`
	// Verify overrides the daemon's default for differential oracle
	// verification of the chosen kernel (nil = daemon default). On a
	// divergence the response is still 200, with Degraded set and the
	// verified baseline kernel in PTX.
	Verify *bool `json:"verify,omitempty"`
	// VerifyRuns/VerifySeed tune the oracle's generated inputs.
	VerifyRuns int   `json:"verify_runs,omitempty"`
	VerifySeed int64 `json:"verify_seed,omitempty"`
	// TimeoutMs is the client's compile deadline; the daemon clamps it to
	// its configured maximum. 0 uses the daemon default.
	TimeoutMs int `json:"timeout_ms,omitempty"`
}

// CompileResponse is the POST /v1/compile result. The Cached, CacheTier,
// and ElapsedMs fields are per-serve metadata stamped by the handler; the
// rest is content-addressed by the request hash and identical no matter
// which tier served it.
type CompileResponse struct {
	Kernel      string `json:"kernel"`
	Arch        string `json:"arch"`
	Reg         int    `json:"reg"`
	TLP         int    `json:"tlp"`
	Candidates  int    `json:"candidates"`
	ProfileRuns int    `json:"profile_runs"` // always 0: OptTLP is an input; kept so clients and journal records keep their shape
	// Backend names the optimization backend whose candidate won the TPSC
	// selection ("baseline" when Degraded).
	Backend string `json:"backend,omitempty"`
	// Degraded is the graceful-degradation signal: the oracle caught a
	// divergence in the optimized kernel and PTX holds the verified
	// MaxReg baseline instead. Never a 500.
	Degraded   bool    `json:"degraded"`
	Divergence string  `json:"divergence,omitempty"`
	PTX        string  `json:"ptx"`
	Cached     bool    `json:"cached"`
	CacheTier  string  `json:"cache_tier,omitempty"`
	ElapsedMs  float64 `json:"elapsed_ms"`
}

// cacheEntry is what the cache tiers store: a CompileResponse with the
// per-serve fields zero.
type cacheEntry = CompileResponse

// compileJob is a validated, defaulted request plus its content hash.
type compileJob struct {
	req      CompileRequest
	arch     gpusim.Config
	verify   bool
	backends []string
	deadline time.Duration
	key      string
	seq      int64
}

// normalize validates req, applies the server's defaults, and computes the
// content-address key. It is pure: no compilation, no I/O.
func (s *Server) normalize(req CompileRequest) (*compileJob, error) {
	if strings.TrimSpace(req.PTX) == "" {
		return nil, fmt.Errorf("ptx is required")
	}
	if len(req.PTX) > maxPTXBytes {
		return nil, fmt.Errorf("ptx is %d bytes; the limit is %d", len(req.PTX), maxPTXBytes)
	}
	if req.Block <= 0 {
		return nil, fmt.Errorf("block must be > 0")
	}
	if req.OptTLP < 0 {
		return nil, fmt.Errorf("opttlp must be >= 0 (0 = MaxTLP)")
	}
	if req.Grid <= 0 {
		req.Grid = 1
	}
	var arch gpusim.Config
	switch req.Arch {
	case "", "fermi":
		arch = gpusim.FermiConfig()
		req.Arch = "fermi"
	case "kepler":
		arch = gpusim.KeplerConfig()
	default:
		return nil, fmt.Errorf("unknown arch %q (want fermi or kepler)", req.Arch)
	}
	verify := s.cfg.VerifyDefault
	if req.Verify != nil {
		verify = *req.Verify
	}
	backends := req.Backends
	if len(backends) == 0 {
		backends = s.cfg.DefaultBackends
	}
	if _, err := backend.Resolve(backends); err != nil {
		return nil, err
	}
	deadline := s.cfg.DefaultDeadline
	if req.TimeoutMs > 0 {
		deadline = time.Duration(req.TimeoutMs) * time.Millisecond
	}
	if deadline > s.cfg.MaxDeadline {
		deadline = s.cfg.MaxDeadline
	}
	key, err := checkpoint.Hash(struct {
		Schema     string
		PTX        string
		Kernel     string
		Arch       string
		Block      int
		Grid       int
		OptTLP     int
		NoShared   bool
		Coalesce   bool
		Backends   []string
		Verify     bool
		VerifyRuns int
		VerifySeed int64
	}{cacheSchema, req.PTX, req.Kernel, req.Arch, req.Block, req.Grid,
		req.OptTLP, req.NoSharedSpill, req.Coalesce, backends, verify, req.VerifyRuns, req.VerifySeed})
	if err != nil {
		return nil, fmt.Errorf("hashing request: %w", err)
	}
	return &compileJob{req: req, arch: arch, verify: verify, backends: backends, deadline: deadline, key: key}, nil
}

// compileOnce runs the full CRAT pipeline for one job. It is the only
// place the daemon invokes the compiler; the caller provides panic
// isolation, caching, and admission around it. OptTLP is an input (0 =
// MaxTLP) and Costs are supplied, so the pipeline runs no simulations
// (oracle verification uses the functional emulator), and a compile's
// latency is deterministic compilation work bounded by ctx.
func (s *Server) compileOnce(ctx context.Context, job *compileJob) (*cacheEntry, error) {
	module, err := ptx.ParseModule(job.req.PTX)
	if err != nil {
		return nil, &requestError{fmt.Errorf("parsing ptx: %w", err)}
	}
	kernel, err := module.Select(job.req.Kernel)
	if err != nil {
		return nil, &requestError{err}
	}
	if err := kernel.Validate(); err != nil {
		return nil, &requestError{fmt.Errorf("invalid kernel: %w", err)}
	}

	app := core.App{Name: kernel.Name, Kernel: kernel, Block: job.req.Block, Grid: job.req.Grid}
	a, err := core.Analyze(app, job.arch)
	if err != nil {
		return nil, &requestError{err}
	}
	costs, err := gpusim.MeasureCosts(job.arch)
	if err != nil {
		return nil, err
	}
	d, err := core.OptimizeCtx(ctx, app, core.Options{
		Arch:              job.arch,
		Analysis:          a,
		OptTLP:            job.req.OptTLP,
		SpillShared:       !job.req.NoSharedSpill,
		Coalesce:          job.req.Coalesce,
		Backends:          job.backends,
		Costs:             costs,
		VerifyEquivalence: job.verify,
		VerifyRuns:        job.req.VerifyRuns,
		VerifySeed:        job.req.VerifySeed,
	})
	if err != nil {
		return nil, err
	}

	// Re-emit the whole module with the chosen kernel swapped in, as cratc
	// does, so the response is a drop-in replacement for the input.
	for i, k := range module.Kernels {
		if k == kernel {
			module.Kernels[i] = d.Chosen.Kernel()
		}
	}
	entry := &cacheEntry{
		Kernel:     kernel.Name,
		Arch:       job.arch.Name,
		Reg:        d.Chosen.UsedRegs(),
		TLP:        d.Chosen.TLP,
		Candidates: len(d.Candidates),
		Backend:    d.Backend,
		Degraded:   d.Degraded,
		PTX:        ptx.PrintModule(module),
	}
	if d.Divergence != nil {
		entry.Divergence = d.Divergence.Error()
	}
	return entry, nil
}

// requestError marks a failure caused by the request itself (unparsable
// PTX, missing kernel, infeasible launch): the client's fault, reported as
// 422 rather than 500.
type requestError struct{ err error }

func (e *requestError) Error() string { return e.err.Error() }
func (e *requestError) Unwrap() error { return e.err }
