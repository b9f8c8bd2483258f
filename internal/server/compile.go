package server

import (
	"context"
	"fmt"
	"strings"
	"time"

	"crat/internal/backend"
	"crat/internal/checkpoint"
	"crat/internal/core"
	"crat/internal/gpusim"
)

// cacheSchema versions the compile semantics the persistent cache assumes.
// Bump it whenever the pipeline's output for identical inputs can change
// (new pass ordering, different TPSC model, ...): a restarted daemon then
// discards the stale warm tier instead of replaying wrong Decisions.
const cacheSchema = "cratd/v3"

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
	// NoSharedSpill disables the shared-memory spilling optimization: it
	// selects the crat-local backend, so it cannot be combined with
	// Backends (400).
	NoSharedSpill bool `json:"no_shared_spill,omitempty"`
	// Coalesce enables the copy-coalescing pre-pass.
	Coalesce bool `json:"coalesce,omitempty"`
	// Backends selects the optimization backends whose candidates compete
	// under the TPSC selection. Order matters (full TPSC ties break toward
	// the earlier-listed backend), so it is never sorted. Empty uses the
	// daemon's configured default (itself empty = crat).
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
	backends []string // resolved: never empty
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
	if req.Arch == "" {
		req.Arch = "fermi"
	}
	arch, err := gpusim.ConfigByName(req.Arch)
	if err != nil {
		return nil, err
	}
	verify := s.cfg.VerifyDefault
	if req.Verify != nil {
		verify = *req.Verify
	}
	backends := req.Backends
	if len(backends) == 0 && !req.NoSharedSpill {
		backends = s.cfg.DefaultBackends
	}
	if backends, err = core.BackendList(backends, req.NoSharedSpill); err != nil {
		return nil, err
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
		Coalesce   bool
		Backends   []string
		Verify     bool
		VerifyRuns int
		VerifySeed int64
	}{cacheSchema, req.PTX, req.Kernel, req.Arch, req.Block, req.Grid,
		req.OptTLP, req.Coalesce, backends, verify, req.VerifyRuns, req.VerifySeed})
	if err != nil {
		return nil, fmt.Errorf("hashing request: %w", err)
	}
	return &compileJob{req: req, arch: arch, verify: verify, backends: backends, deadline: deadline, key: key}, nil
}

// compileOnce runs the full CRAT pipeline for one job. It is the only
// place the daemon invokes the compiler; the caller provides panic
// isolation, caching, and admission around it. OptTLP is an input (0 =
// MaxTLP) and the per-arch access costs are measured once per process, so
// the pipeline runs no simulations (oracle verification uses the
// functional emulator), and a compile's latency is deterministic
// compilation work bounded by ctx.
func (s *Server) compileOnce(ctx context.Context, job *compileJob) (*cacheEntry, error) {
	c, err := core.Compile(ctx, core.Request{
		PTX: job.req.PTX, Kernel: job.req.Kernel, Block: job.req.Block, Grid: job.req.Grid,
		Options: core.Options{
			Arch:              job.arch,
			OptTLP:            job.req.OptTLP,
			Coalesce:          job.req.Coalesce,
			Backends:          job.backends,
			VerifyEquivalence: job.verify,
			VerifyRuns:        job.req.VerifyRuns,
			VerifySeed:        job.req.VerifySeed,
		},
	})
	if err != nil {
		return nil, err
	}
	entry := &cacheEntry{
		Kernel:     c.App.Name,
		Arch:       job.arch.Name,
		Reg:        c.Chosen.UsedRegs(),
		TLP:        c.Chosen.TLP,
		Candidates: len(c.Candidates),
		Backend:    c.Backend,
		Degraded:   c.Degraded,
		PTX:        c.PTX,
	}
	if c.Divergence != nil {
		entry.Divergence = c.Divergence.Error()
	}
	return entry, nil
}
