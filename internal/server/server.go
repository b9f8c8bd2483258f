// Package server implements cratd's HTTP compilation service: POST
// /v1/compile runs the coordinated register-allocation + TLP pipeline on a
// client's PTX and returns the optimized module plus the Decision summary.
//
// Robustness is the design center, applying the paper's coordinated
// resource-management discipline to server capacity:
//
//   - Admission control: a bounded queue in front of a bounded worker
//     pool. When the queue is full the daemon sheds load with 429 +
//     Retry-After instead of buffering unboundedly; admitted requests run
//     under a per-request deadline, so their latency is capped.
//   - Content-addressed caching: sha256(request) keys a singleflight
//     memory tier (concurrent identical requests compile once) layered
//     over an internal/checkpoint journal as the persistent warm tier — a
//     restarted daemon serves previously compiled kernels with zero
//     recompilation (the "computes" counter in /statsz proves it).
//   - Graceful degradation: per-request oracle verification returns a
//     degraded: true Decision carrying the verified baseline kernel on a
//     divergence — never a 500. Panics are confined to the request that
//     raised them (pool.PanicError) and answered with a 500 for that
//     request only.
//   - Graceful drain: Shutdown stops admission, lets in-flight requests
//     finish, and flushes the journal before returning.
//
// See DESIGN.md §13 for the failure matrix.
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"crat/internal/backend"
	"crat/internal/buildinfo"
	"crat/internal/checkpoint"
	"crat/internal/core"
	"crat/internal/faultinject"
	"crat/internal/gpusim"
	"crat/internal/pool"
)

// Config sizes the daemon. The zero value is usable: Defaults fills it.
type Config struct {
	// Workers bounds concurrent compilations (0 = one per CPU).
	Workers int
	// QueueCapacity bounds admitted requests (waiting + compiling).
	// Admission beyond it is shed with 429 (0 = 4×Workers).
	QueueCapacity int
	// DefaultDeadline applies when a request carries no timeout_ms;
	// MaxDeadline clamps what a request may ask for.
	DefaultDeadline time.Duration
	MaxDeadline     time.Duration
	// CacheDir, when set, holds the persistent cache tier (an
	// internal/checkpoint journal). Empty = memory tiers only.
	CacheDir string
	// VerifyDefault runs the differential oracle on every compile unless
	// the request overrides it.
	VerifyDefault bool
	// DefaultBackends selects the optimization backends for requests that
	// don't name their own (cratd -backends). Order matters: full TPSC
	// ties break toward the earlier-listed backend. Empty preserves the
	// mode-implied CRAT strategy.
	DefaultBackends []string
	// FS, when set, routes the persistent tier's filesystem operations
	// through it — the deterministic fault-injection seam (cratd -fault).
	// Nil = the real filesystem.
	FS faultinject.FS
	// DrainGrace holds the listener open (still answering /readyz with
	// 503 and /healthz with 200) for this long after a drain begins,
	// before connections stop being accepted. A gateway health-checking
	// this replica observes the not-ready flip and takes it out of
	// rotation while the listener is still up, instead of discovering the
	// drain as a connection error. 0 = close immediately (the old
	// behavior; fine without a gateway).
	DrainGrace time.Duration
	// Log receives the daemon's operational log lines (nil = discard).
	Log *log.Logger
}

// Defaults returns cfg with zero fields replaced by production defaults.
func (cfg Config) Defaults() Config {
	if cfg.Workers <= 0 {
		cfg.Workers = pool.DefaultWorkers()
	}
	if cfg.QueueCapacity <= 0 {
		cfg.QueueCapacity = 4 * cfg.Workers
	}
	if cfg.DefaultDeadline <= 0 {
		cfg.DefaultDeadline = 30 * time.Second
	}
	if cfg.MaxDeadline <= 0 {
		cfg.MaxDeadline = 2 * time.Minute
	}
	return cfg
}

// Stats are the daemon's monotonic counters, exposed by /statsz. All
// fields are atomics so the hot path never takes a lock to count.
type Stats struct {
	Admitted         atomic.Int64 // requests past admission control
	Shed             atomic.Int64 // 429s: queue full
	Completed        atomic.Int64 // 200s served
	Failed           atomic.Int64 // request/compile errors (4xx/5xx except sheds)
	Panics           atomic.Int64 // compiles that panicked (isolated, 500)
	Degraded         atomic.Int64 // 200s served with degraded: true
	DeadlineExceeded atomic.Int64 // admitted requests that ran out of deadline
	ClientCanceled   atomic.Int64 // clients that hung up mid-request
	MemoryHits       atomic.Int64 // serves from the singleflight memory tier
	PersistentHits   atomic.Int64 // serves from the checkpoint journal
	Computes         atomic.Int64 // actual pipeline executions (cache misses)
	CachePutErrors   atomic.Int64 // journal appends that failed (durability degraded)
}

// StatsSnapshot is the JSON shape of GET /statsz.
type StatsSnapshot struct {
	Build            string  `json:"build"`
	UptimeSec        float64 `json:"uptime_sec"`
	Draining         bool    `json:"draining"`
	Workers          int     `json:"workers"`
	QueueCapacity    int     `json:"queue_capacity"`
	QueueDepth       int     `json:"queue_depth"`
	InFlight         int     `json:"in_flight"`
	Admitted         int64   `json:"admitted"`
	Shed             int64   `json:"shed"`
	Completed        int64   `json:"completed"`
	Failed           int64   `json:"failed"`
	Panics           int64   `json:"panics"`
	Degraded         int64   `json:"degraded"`
	DeadlineExceeded int64   `json:"deadline_exceeded"`
	ClientCanceled   int64   `json:"client_canceled"`
	MemoryHits       int64   `json:"memory_hits"`
	PersistentHits   int64   `json:"persistent_hits"`
	Computes         int64   `json:"computes"`
	CachePutErrors   int64   `json:"cache_put_errors"`
	MemoryEntries    int     `json:"memory_entries"`
	CacheEntries     int     `json:"cache_entries"`
	CacheLoaded      int     `json:"cache_loaded"`
	CacheDir         string  `json:"cache_dir,omitempty"`
	// BackendWins counts, per optimization backend, the 200s served whose
	// Decision that backend won — across every cache tier, so a replay
	// from the journal still attributes its serve.
	BackendWins map[string]int64 `json:"backend_wins,omitempty"`
	// CacheDegraded names why the persistent tier is disabled (the daemon
	// chose a cold cache over refusing to start); empty when healthy.
	CacheDegraded string `json:"cache_degraded,omitempty"`
	// Journal is the checkpoint store's durability report: entries
	// loaded, salvaged torn tails, quarantined corruption, compactions.
	Journal *checkpoint.Health `json:"journal,omitempty"`
}

// Server is the compilation service. Create with New, expose with
// Handler() (tests, embedding) or Serve() (cratd), stop with Shutdown.
type Server struct {
	cfg   Config
	stats Stats

	queue    chan struct{} // admission tokens: waiting + compiling
	workers  chan struct{} // compile slots
	mem      *pool.Memo[string, *cacheEntry]
	store    *checkpoint.Store // nil without CacheDir (or when degraded)
	degraded string            // why the persistent tier is off ("" = healthy)
	draining atomic.Bool
	seq      atomic.Int64
	start    time.Time

	wg sync.WaitGroup // admitted requests in flight

	backendMu   sync.Mutex
	backendWins map[string]int64 // 200s served per winning backend

	mu   sync.Mutex
	http *http.Server
}

// New builds a Server. When cfg.CacheDir is set the persistent tier is
// opened resume-first: an existing journal written by a compatible daemon
// becomes the warm cache (corrupt records are salvaged and quarantined by
// the journal itself); a stale one (schema change) is discarded and the
// store re-initialized. A cache directory that cannot be opened at all
// does not stop the daemon: it serves with a cold cache and a loud
// structured warning — availability over durability, and /statsz says so.
// The default architecture's access costs are measured eagerly so the
// first request doesn't pay for them.
func New(cfg Config) (*Server, error) {
	cfg = cfg.Defaults()
	s := &Server{
		cfg:         cfg,
		queue:       make(chan struct{}, cfg.QueueCapacity),
		workers:     make(chan struct{}, cfg.Workers),
		mem:         pool.NewMemo[string, *cacheEntry](),
		backendWins: make(map[string]int64),
		start:       time.Now(),
	}
	if _, err := backend.Resolve(cfg.DefaultBackends); err != nil {
		return nil, fmt.Errorf("default backends: %w", err)
	}
	if cfg.CacheDir != "" {
		key, err := checkpoint.Hash(struct{ Schema string }{cacheSchema})
		if err != nil {
			return nil, err
		}
		st, err := checkpoint.OpenFS(cfg.CacheDir, key, "cratd", true, cfg.FS)
		if err != nil {
			if errors.Is(err, checkpoint.ErrStale) {
				s.logf("cache %s is stale (%v); re-initializing", cfg.CacheDir, err)
			} else {
				s.logf("WARN cache %s resume failed (%v); re-initializing", cfg.CacheDir, err)
			}
			st, err = checkpoint.OpenFS(cfg.CacheDir, key, "cratd", false, cfg.FS)
		}
		switch {
		case err != nil:
			s.degraded = err.Error()
			s.logf("WARN event=cache_degraded dir=%s err=%q — serving with cold in-memory cache only; durability disabled",
				cfg.CacheDir, err)
		default:
			s.store = st
			h := st.Health()
			if h.SalvagedTail > 0 || h.Quarantined > 0 {
				s.logf("WARN event=cache_salvaged dir=%s loaded=%d salvaged_tail=%d quarantined=%d quarantined_bytes=%d — journal corruption contained, see %s",
					cfg.CacheDir, h.Loaded, h.SalvagedTail, h.Quarantined, h.QuarantinedBytes, checkpoint.QuarantineFilename)
			}
			s.logf("cache %s: %d entries warm", cfg.CacheDir, st.Loaded())
		}
	}
	if _, err := gpusim.MeasureCosts(gpusim.FermiConfig()); err != nil {
		return nil, fmt.Errorf("measuring access costs: %w", err)
	}
	return s, nil
}

func (s *Server) logf(format string, args ...any) {
	if s.cfg.Log != nil {
		s.cfg.Log.Printf(format, args...)
	}
}

// Stats exposes the counters (tests and embedders).
func (s *Server) Stats() *Stats { return &s.stats }

// backendWinsSnapshot copies the per-backend serve counters (nil when no
// compile has been served yet, so /statsz omits the field).
func (s *Server) backendWinsSnapshot() map[string]int64 {
	s.backendMu.Lock()
	defer s.backendMu.Unlock()
	if len(s.backendWins) == 0 {
		return nil
	}
	out := make(map[string]int64, len(s.backendWins))
	for k, v := range s.backendWins {
		out[k] = v
	}
	return out
}

// Handler returns the daemon's HTTP mux.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/compile", s.handleCompile)
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /readyz", s.handleReadyz)
	mux.HandleFunc("GET /statsz", s.handleStatsz)
	return mux
}

// Serve runs the HTTP server on l until Shutdown (returns nil) or a
// listener error.
func (s *Server) Serve(l net.Listener) error {
	srv := &http.Server{Handler: s.Handler(), ReadHeaderTimeout: 10 * time.Second}
	s.mu.Lock()
	s.http = srv
	s.mu.Unlock()
	err := srv.Serve(l)
	if errors.Is(err, http.ErrServerClosed) {
		return nil
	}
	return err
}

// Shutdown drains the daemon: admission stops immediately (readyz goes
// 503, new compiles are refused), the listener stays open for DrainGrace
// so health checkers observe the flip, in-flight requests run to
// completion within ctx, and the cache journal is flushed as the final
// barrier. A nil return means every in-flight request finished and the
// journal is on disk.
func (s *Server) Shutdown(ctx context.Context) error {
	s.draining.Store(true)
	if s.cfg.DrainGrace > 0 {
		select {
		case <-time.After(s.cfg.DrainGrace):
		case <-ctx.Done():
		}
	}
	var err error
	s.mu.Lock()
	srv := s.http
	s.mu.Unlock()
	if srv != nil {
		err = srv.Shutdown(ctx)
	}
	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-ctx.Done():
		if err == nil {
			err = fmt.Errorf("drain: %w", ctx.Err())
		}
	}
	if s.store != nil {
		if ferr := s.store.Flush(); ferr != nil && err == nil {
			err = ferr
		}
		if cerr := s.store.Close(); cerr != nil && err == nil {
			err = cerr
		}
	}
	return err
}

// statusClientClosed is the nginx-convention status for "client hung up
// before we could answer"; nothing receives it, but logs and stats do.
const statusClientClosed = 499

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintln(w, "ok")
}

func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	if s.draining.Load() {
		w.WriteHeader(http.StatusServiceUnavailable)
		fmt.Fprintln(w, "draining")
		return
	}
	fmt.Fprintln(w, "ready")
}

func (s *Server) handleStatsz(w http.ResponseWriter, r *http.Request) {
	snap := StatsSnapshot{
		Build:            buildinfo.String(),
		UptimeSec:        time.Since(s.start).Seconds(),
		Draining:         s.draining.Load(),
		Workers:          cap(s.workers),
		QueueCapacity:    cap(s.queue),
		QueueDepth:       len(s.queue),
		InFlight:         len(s.workers),
		Admitted:         s.stats.Admitted.Load(),
		Shed:             s.stats.Shed.Load(),
		Completed:        s.stats.Completed.Load(),
		Failed:           s.stats.Failed.Load(),
		Panics:           s.stats.Panics.Load(),
		Degraded:         s.stats.Degraded.Load(),
		DeadlineExceeded: s.stats.DeadlineExceeded.Load(),
		ClientCanceled:   s.stats.ClientCanceled.Load(),
		MemoryHits:       s.stats.MemoryHits.Load(),
		PersistentHits:   s.stats.PersistentHits.Load(),
		Computes:         s.stats.Computes.Load(),
		CachePutErrors:   s.stats.CachePutErrors.Load(),
		MemoryEntries:    s.mem.Len(),
		BackendWins:      s.backendWinsSnapshot(),
		CacheDegraded:    s.degraded,
	}
	if s.store != nil {
		snap.CacheEntries = s.store.Count()
		snap.CacheLoaded = s.store.Loaded()
		snap.CacheDir = s.store.Dir()
		h := s.store.Health()
		snap.Journal = &h
	}
	writeJSON(w, http.StatusOK, snap)
}

// handleCompile is the admission-controlled compile endpoint. The failure
// matrix (DESIGN.md §13):
//
//	queue full        → 429 + Retry-After (shed, never buffered)
//	draining          → 503
//	bad request       → 400 (malformed JSON, unknown field) / 422 (bad PTX or launch)
//	deadline exceeded → 504 (whether it expired waiting or compiling)
//	client hung up    → connection dropped, counted as 499
//	compile panic     → 500 for this request only
//	oracle divergence → 200 with degraded: true (the baseline kernel)
func (s *Server) handleCompile(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		writeError(w, http.StatusServiceUnavailable, "draining")
		return
	}
	var req CompileRequest
	body := http.MaxBytesReader(w, r.Body, maxPTXBytes+1<<20)
	dec := json.NewDecoder(body)
	// A field the request type does not have is a client mistake (a typo
	// such as "backend", or a retired option), not something to ignore.
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		s.stats.Failed.Add(1)
		writeError(w, http.StatusBadRequest, fmt.Sprintf("decoding request: %v", err))
		return
	}
	io.Copy(io.Discard, body)
	job, err := s.normalize(req)
	if err != nil {
		s.stats.Failed.Add(1)
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	job.seq = s.seq.Add(1)

	// Admission: one token per admitted request, released on exit. No
	// token free means QueueCapacity requests are already waiting or
	// compiling — shed now, cheaply, rather than queue unboundedly.
	select {
	case s.queue <- struct{}{}:
	default:
		s.stats.Shed.Add(1)
		w.Header().Set("Retry-After", "1")
		writeError(w, http.StatusTooManyRequests, "admission queue full")
		return
	}
	defer func() { <-s.queue }()
	s.stats.Admitted.Add(1)
	s.wg.Add(1)
	defer s.wg.Done()

	ctx, cancel := context.WithTimeout(r.Context(), job.deadline)
	defer cancel()

	start := time.Now()
	entry, tier, err := s.compileCached(ctx, job)
	elapsed := time.Since(start)
	if err != nil {
		status := s.classifyError(r, err)
		s.logf("compile seq=%d key=%.12s status=%d elapsed=%s err=%v",
			job.seq, job.key, status, elapsed.Round(time.Millisecond), err)
		writeError(w, status, err.Error())
		return
	}
	resp := *entry
	resp.Cached = tier != ""
	resp.CacheTier = tier
	resp.ElapsedMs = float64(elapsed) / float64(time.Millisecond)
	s.stats.Completed.Add(1)
	if resp.Backend != "" {
		s.backendMu.Lock()
		s.backendWins[resp.Backend]++
		s.backendMu.Unlock()
	}
	if resp.Degraded {
		s.stats.Degraded.Add(1)
		s.logf("compile seq=%d kernel=%s DEGRADED: %s", job.seq, resp.Kernel, resp.Divergence)
	}
	writeJSON(w, http.StatusOK, resp)
}

// classifyError maps a compile failure to its HTTP status and counts it.
func (s *Server) classifyError(r *http.Request, err error) int {
	switch {
	case r.Context().Err() != nil:
		s.stats.ClientCanceled.Add(1)
		return statusClientClosed
	case pool.IsCancellation(err):
		s.stats.DeadlineExceeded.Add(1)
		return http.StatusGatewayTimeout
	default:
		s.stats.Failed.Add(1)
		var inErr *core.InputError
		if errors.As(err, &inErr) {
			return http.StatusUnprocessableEntity
		}
		return http.StatusInternalServerError
	}
}

// compileCached serves a job through the cache tiers: the singleflight
// memory tier, then the persistent journal, then an actual compile under a
// worker slot. tier reports where the result came from ("" = compiled
// fresh by this call).
func (s *Server) compileCached(ctx context.Context, job *compileJob) (*cacheEntry, string, error) {
	persistent := false
	entry, memoized, err := s.mem.Do(ctx, job.key, func() (*cacheEntry, error) {
		if s.store != nil {
			var cached cacheEntry
			if ok, gerr := s.store.Get(job.key, &cached); gerr == nil && ok {
				s.stats.PersistentHits.Add(1)
				persistent = true
				return &cached, nil
			} else if gerr != nil {
				// A malformed entry is a miss: recompiling repairs it.
				s.logf("cache entry %.12s unreadable (%v); recompiling", job.key, gerr)
			}
		}
		// Worker slot: the wait is bounded by the request deadline, so an
		// overloaded daemon answers 504 instead of parking forever.
		select {
		case s.workers <- struct{}{}:
		case <-ctx.Done():
			return nil, ctx.Err()
		}
		defer func() { <-s.workers }()
		s.stats.Computes.Add(1)
		e, cerr := s.compileIsolated(ctx, job)
		if cerr != nil {
			return nil, cerr
		}
		if s.store != nil {
			if perr := s.store.Put(job.key, e); perr != nil {
				// Persistence failure degrades durability, not the request.
				s.stats.CachePutErrors.Add(1)
				s.logf("cache put %.12s: %v", job.key, perr)
			}
		}
		return e, nil
	})
	switch {
	case err != nil:
		return nil, "", err
	case memoized:
		s.stats.MemoryHits.Add(1)
		return entry, "memory", nil
	case persistent:
		return entry, "persistent", nil
	default:
		return entry, "", nil
	}
}

// compileIsolated confines a compile panic to its own request: the
// recovered value becomes a *pool.PanicError attributed to the request's
// sequence number, answered with a 500, while the daemon keeps serving.
func (s *Server) compileIsolated(ctx context.Context, job *compileJob) (entry *cacheEntry, err error) {
	defer func() {
		if r := recover(); r != nil {
			s.stats.Panics.Add(1)
			err = &pool.PanicError{Job: int(job.seq), Value: r, NumPanicked: 1}
			s.logf("compile seq=%d PANIC isolated: %v", job.seq, r)
		}
	}()
	return s.compileOnce(ctx, job)
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

func writeError(w http.ResponseWriter, status int, msg string) {
	writeJSON(w, status, struct {
		Error  string `json:"error"`
		Status int    `json:"status"`
	}{msg, status})
}
