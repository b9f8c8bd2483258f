package shard

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"crat/internal/buildinfo"
	"crat/internal/checkpoint"
	"crat/internal/retry"
	"crat/internal/server"
)

// gwMaxBody bounds a proxied request body: the daemon's PTX limit plus
// JSON overhead, mirroring cratd's own admission bound.
const gwMaxBody = 5 << 20

// GatewayConfig wires a Gateway. Replicas is the only required field.
type GatewayConfig struct {
	// Replicas are the cratd base URLs (http://host:port). The set is
	// fixed for the gateway's lifetime; health checking moves members in
	// and out of the routing ring, never out of the set.
	Replicas []string
	// Vnodes per replica on the ring (0 = DefaultVnodes).
	Vnodes int
	// Health tunes the active prober; Breaker the per-replica circuit
	// breakers.
	Health  HealthConfig
	Breaker BreakerConfig
	// Retry shapes the per-request attempt loop: MaxAttempts total tries
	// (default 3), exponential full-jitter backoff between them (default
	// base 25ms, cap 1s — failover wants to be fast).
	Retry retry.Policy
	// HedgeAfter, when positive, launches a tail-latency hedge: if the
	// primary has not answered after this long, the same request is
	// issued to the failover replica and the first success wins. Safe
	// because compiles are deterministic and content-addressed — both
	// replicas produce byte-identical Decisions. Derive it from the
	// fleet's p99 (cratload reports it); 0 disables hedging.
	HedgeAfter time.Duration
	// MaxRetryAfterWait caps how long a replica's Retry-After hint can
	// stall an attempt loop (default 2s).
	MaxRetryAfterWait time.Duration
	// Clock is injectable for tests (default system).
	Clock retry.Clock
	// Transport, when set, replaces the default HTTP transport for every
	// replica-bound request (proxied compiles and health probes alike) —
	// the fault-injection seam for connection resets and latency spikes
	// (cratgw -fault). Nil = http.DefaultTransport.
	Transport http.RoundTripper
	// Log receives operational lines (nil = discard).
	Log *log.Logger
}

func (c GatewayConfig) withDefaults() GatewayConfig {
	c.Health = c.Health.withDefaults()
	if c.Retry.MaxAttempts <= 0 {
		c.Retry.MaxAttempts = 3
	}
	if c.Retry.BaseDelay <= 0 {
		c.Retry.BaseDelay = 25 * time.Millisecond
	}
	if c.Retry.MaxDelay <= 0 {
		c.Retry.MaxDelay = time.Second
	}
	if c.MaxRetryAfterWait <= 0 {
		c.MaxRetryAfterWait = 2 * time.Second
	}
	if c.Clock == nil {
		c.Clock = retry.SystemClock()
	}
	c.Retry.Clock = c.Clock
	c.Breaker.Clock = c.Clock
	return c
}

// GatewayStats are the gateway-wide counters in /statsz.
type GatewayStats struct {
	Requests       atomic.Int64 // compile requests received
	Completed      atomic.Int64 // answered with a replica's 2xx
	Relayed4xx     atomic.Int64 // client errors relayed verbatim
	Retries        atomic.Int64 // 429-with-Retry-After re-sends to the same replica
	Failovers      atomic.Int64 // attempts moved to the next ring replica
	Hedges         atomic.Int64 // tail-latency hedge requests launched
	HedgeWins      atomic.Int64 // hedges whose response was the one served
	NoReplica      atomic.Int64 // 503: no routable replica (all ejected/open)
	ClientCanceled atomic.Int64 // clients gone before an answer
	Exhausted      atomic.Int64 // attempt budget spent without a success
}

// replica is one backend's routing state: its breaker, its health
// standing, and its per-replica counters.
type replica struct {
	url     string
	breaker *Breaker

	healthy       atomic.Bool
	consecFails   int // probe failures; prober goroutine only
	consecOKs     int
	probeCount    int // probes issued; prober goroutine only
	ejections     atomic.Int64
	probeFailures atomic.Int64
	requests      atomic.Int64
	failures      atomic.Int64

	// journal is the replica's last-scraped durability report (nil until
	// the prober's first /statsz scrape succeeds).
	journalMu     sync.Mutex
	journal       *checkpoint.Health
	cacheDegraded string
}

// Gateway fronts N cratd replicas: consistent-hash routing on the
// request's content key, active health ejection, per-replica circuit
// breaking, retry/failover, and optional hedging. It is itself a
// drainable HTTP service with the same /healthz//readyz//statsz triple
// as the daemons it fronts.
type Gateway struct {
	cfg      GatewayConfig
	ring     *Ring // health-managed membership
	full     *Ring // every configured replica; last-resort routing order
	replicas map[string]*replica
	client   *http.Client
	stats    GatewayStats
	start    time.Time

	draining   atomic.Bool
	probeStop  context.CancelFunc
	probeGroup sync.WaitGroup
	wg         sync.WaitGroup // in-flight compile requests

	mu   sync.Mutex
	http *http.Server
}

// NewGateway builds a gateway over the configured replicas. Every
// replica starts in the ring (optimistically healthy); the prober ejects
// the ones that fail. Call Start to begin probing.
func NewGateway(cfg GatewayConfig) (*Gateway, error) {
	cfg = cfg.withDefaults()
	if len(cfg.Replicas) == 0 {
		return nil, fmt.Errorf("gateway needs at least one replica")
	}
	g := &Gateway{
		cfg:      cfg,
		ring:     NewRing(cfg.Vnodes),
		full:     NewRing(cfg.Vnodes),
		replicas: make(map[string]*replica, len(cfg.Replicas)),
		client:   &http.Client{Transport: cfg.Transport},
		start:    time.Now(),
	}
	for _, url := range cfg.Replicas {
		if _, dup := g.replicas[url]; dup {
			return nil, fmt.Errorf("duplicate replica %s", url)
		}
		rep := &replica{url: url, breaker: NewBreaker(cfg.Breaker)}
		rep.healthy.Store(true)
		g.replicas[url] = rep
		g.ring.Add(url)
		g.full.Add(url)
	}
	return g, nil
}

func (g *Gateway) logf(format string, args ...any) {
	if g.cfg.Log != nil {
		g.cfg.Log.Printf(format, args...)
	}
}

// Stats exposes the counters (tests and embedders).
func (g *Gateway) Stats() *GatewayStats { return &g.stats }

// Replica returns a replica's breaker (tests).
func (g *Gateway) Breaker(url string) *Breaker {
	if rep, ok := g.replicas[url]; ok {
		return rep.breaker
	}
	return nil
}

// Start launches the health probers. Stop them via Shutdown (or Close).
func (g *Gateway) Start() {
	ctx, cancel := context.WithCancel(context.Background())
	g.probeStop = cancel
	for _, rep := range g.replicas {
		g.probeGroup.Add(1)
		go g.probeLoop(ctx, rep)
	}
}

// Handler returns the gateway's HTTP mux.
func (g *Gateway) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/compile", g.handleCompile)
	mux.HandleFunc("GET /healthz", g.handleHealthz)
	mux.HandleFunc("GET /readyz", g.handleReadyz)
	mux.HandleFunc("GET /statsz", g.handleStatsz)
	return mux
}

// Serve runs the gateway on l until Shutdown (returns nil) or a listener
// error.
func (g *Gateway) Serve(l net.Listener) error {
	srv := &http.Server{Handler: g.Handler(), ReadHeaderTimeout: 10 * time.Second}
	g.mu.Lock()
	g.http = srv
	g.mu.Unlock()
	err := srv.Serve(l)
	if errors.Is(err, http.ErrServerClosed) {
		return nil
	}
	return err
}

// Shutdown drains the gateway: routing stops (readyz 503, compiles
// refused), probers stop, and in-flight proxied requests run to
// completion within ctx.
func (g *Gateway) Shutdown(ctx context.Context) error {
	g.draining.Store(true)
	if g.probeStop != nil {
		g.probeStop()
		g.probeGroup.Wait()
	}
	var err error
	g.mu.Lock()
	srv := g.http
	g.mu.Unlock()
	if srv != nil {
		err = srv.Shutdown(ctx)
	}
	done := make(chan struct{})
	go func() {
		g.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-ctx.Done():
		if err == nil {
			err = fmt.Errorf("drain: %w", ctx.Err())
		}
	}
	return err
}

func (g *Gateway) handleHealthz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintln(w, "ok")
}

func (g *Gateway) handleReadyz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	switch {
	case g.draining.Load():
		w.WriteHeader(http.StatusServiceUnavailable)
		fmt.Fprintln(w, "draining")
	case g.ring.Len() == 0:
		w.WriteHeader(http.StatusServiceUnavailable)
		fmt.Fprintln(w, "no healthy replicas")
	default:
		fmt.Fprintln(w, "ready")
	}
}

// ReplicaStatus is one backend's row in the gateway /statsz.
type ReplicaStatus struct {
	URL           string `json:"url"`
	Healthy       bool   `json:"healthy"`
	Breaker       string `json:"breaker"`
	BreakerOpens  int64  `json:"breaker_opens"`
	Ejections     int64  `json:"ejections"`
	ProbeFailures int64  `json:"probe_failures"`
	Requests      int64  `json:"requests"`
	Failures      int64  `json:"failures"`
	// Journal is the replica's journal health as last scraped by the
	// prober (nil until a scrape succeeds); CacheDegraded relays the
	// replica's cold-cache reason.
	Journal       *checkpoint.Health `json:"journal,omitempty"`
	CacheDegraded string             `json:"cache_degraded,omitempty"`
}

// GatewaySnapshot is the JSON shape of the gateway's GET /statsz.
type GatewaySnapshot struct {
	Build           string          `json:"build"`
	UptimeSec       float64         `json:"uptime_sec"`
	Draining        bool            `json:"draining"`
	HealthyReplicas int             `json:"healthy_replicas"`
	Replicas        []ReplicaStatus `json:"replicas"`
	Requests        int64           `json:"requests"`
	Completed       int64           `json:"completed"`
	Relayed4xx      int64           `json:"relayed_4xx"`
	Retries         int64           `json:"retries"`
	Failovers       int64           `json:"failovers"`
	Hedges          int64           `json:"hedges"`
	HedgeWins       int64           `json:"hedge_wins"`
	BreakerOpens    int64           `json:"breaker_opens"`
	Ejections       int64           `json:"ejections"`
	NoReplica       int64           `json:"no_replica"`
	ClientCanceled  int64           `json:"client_canceled"`
	Exhausted       int64           `json:"exhausted"`
	// Fleet-wide journal aggregates, summed over the replicas whose
	// /statsz the prober has scraped: one place to see whether any
	// replica salvaged, quarantined, or compacted its journal.
	JournalEntries     int `json:"journal_entries"`
	JournalLoaded      int `json:"journal_loaded"`
	JournalSalvaged    int `json:"journal_salvaged_tail"`
	JournalQuarantined int `json:"journal_quarantined"`
	JournalCompactions int `json:"journal_compactions"`
	CacheDegradedCount int `json:"cache_degraded_count"`
}

// Snapshot assembles the /statsz document (also used by tests).
func (g *Gateway) Snapshot() GatewaySnapshot {
	snap := GatewaySnapshot{
		Build:           buildinfo.String(),
		UptimeSec:       time.Since(g.start).Seconds(),
		Draining:        g.draining.Load(),
		HealthyReplicas: g.ring.Len(),
		Requests:        g.stats.Requests.Load(),
		Completed:       g.stats.Completed.Load(),
		Relayed4xx:      g.stats.Relayed4xx.Load(),
		Retries:         g.stats.Retries.Load(),
		Failovers:       g.stats.Failovers.Load(),
		Hedges:          g.stats.Hedges.Load(),
		HedgeWins:       g.stats.HedgeWins.Load(),
		NoReplica:       g.stats.NoReplica.Load(),
		ClientCanceled:  g.stats.ClientCanceled.Load(),
		Exhausted:       g.stats.Exhausted.Load(),
	}
	for _, url := range g.full.Members() {
		rep := g.replicas[url]
		rs := ReplicaStatus{
			URL:           rep.url,
			Healthy:       rep.healthy.Load(),
			Breaker:       rep.breaker.State().String(),
			BreakerOpens:  rep.breaker.Opens(),
			Ejections:     rep.ejections.Load(),
			ProbeFailures: rep.probeFailures.Load(),
			Requests:      rep.requests.Load(),
			Failures:      rep.failures.Load(),
		}
		rep.journalMu.Lock()
		if rep.journal != nil {
			h := *rep.journal
			rs.Journal = &h
		}
		rs.CacheDegraded = rep.cacheDegraded
		rep.journalMu.Unlock()
		snap.BreakerOpens += rs.BreakerOpens
		snap.Ejections += rs.Ejections
		if rs.Journal != nil {
			snap.JournalEntries += rs.Journal.Entries
			snap.JournalLoaded += rs.Journal.Loaded
			snap.JournalSalvaged += rs.Journal.SalvagedTail
			snap.JournalQuarantined += rs.Journal.Quarantined
			snap.JournalCompactions += rs.Journal.Compactions
		}
		if rs.CacheDegraded != "" {
			snap.CacheDegradedCount++
		}
		snap.Replicas = append(snap.Replicas, rs)
	}
	return snap
}

func (g *Gateway) handleStatsz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, g.Snapshot())
}

// attemptResult is one proxied try's outcome: either a transport error
// or a fully read replica response.
type attemptResult struct {
	replica *replica
	status  int
	header  http.Header
	body    []byte
	err     error
}

// handleCompile routes one compile across the fleet. The decision table
// (DESIGN.md §15):
//
//	connection error   → breaker failure, fail over to next ring replica
//	5xx (500/502/503)  → breaker failure, fail over
//	429 + Retry-After  → honor the hint (capped), retry the SAME replica
//	                     (shedding is healthy; the key's cache lives there)
//	504                → relay (the request's deadline is spent; a retry
//	                     elsewhere would just spend it again)
//	2xx / other 4xx    → breaker success, relay
//	context done       → stop immediately; never retry a dead request
func (g *Gateway) handleCompile(w http.ResponseWriter, r *http.Request) {
	if g.draining.Load() {
		writeError(w, http.StatusServiceUnavailable, "gateway draining")
		return
	}
	g.wg.Add(1)
	defer g.wg.Done()
	g.stats.Requests.Add(1)

	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, gwMaxBody))
	if err != nil {
		writeError(w, http.StatusBadRequest, fmt.Sprintf("reading request: %v", err))
		return
	}
	var req server.CompileRequest
	if err := json.Unmarshal(body, &req); err != nil {
		writeError(w, http.StatusBadRequest, fmt.Sprintf("decoding request: %v", err))
		return
	}
	key, err := server.RouteKey(req)
	if err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}

	res := g.route(r.Context(), key, body)
	switch {
	case res.err != nil:
		if r.Context().Err() != nil {
			g.stats.ClientCanceled.Add(1)
			return // the client is gone; nothing to write
		}
		writeError(w, http.StatusBadGateway, fmt.Sprintf("all attempts failed: %v", res.err))
	case res.status == 0:
		g.stats.NoReplica.Add(1)
		w.Header().Set("Retry-After", "1")
		writeError(w, http.StatusServiceUnavailable, "no routable replica (all ejected or circuit-open)")
	default:
		if res.status >= 200 && res.status < 300 {
			g.stats.Completed.Add(1)
		} else if res.status >= 400 && res.status < 500 {
			g.stats.Relayed4xx.Add(1)
		}
		if ct := res.header.Get("Content-Type"); ct != "" {
			w.Header().Set("Content-Type", ct)
		}
		if ra := res.header.Get("Retry-After"); ra != "" {
			w.Header().Set("Retry-After", ra)
		}
		w.Header().Set("X-Crat-Replica", res.replica.url)
		w.WriteHeader(res.status)
		w.Write(res.body)
	}
}

// candidatesFor returns the key's replica order: the healthy ring's
// lookup, falling back to the full ring when every member is ejected (a
// desperate attempt beats a guaranteed 503 — the probes may simply not
// have re-admitted a recovered fleet yet).
func (g *Gateway) candidatesFor(key string) []*replica {
	urls := g.ring.Lookup(key, 0)
	if len(urls) == 0 {
		urls = g.full.Lookup(key, 0)
	}
	out := make([]*replica, len(urls))
	for i, u := range urls {
		out[i] = g.replicas[u]
	}
	return out
}

// route drives the attempt loop over the key's candidate order. A zero
// attemptResult (status 0, err nil) means no replica could even be
// tried.
func (g *Gateway) route(ctx context.Context, key string, body []byte) attemptResult {
	candidates := g.candidatesFor(key)
	var last attemptResult
	var failed []string // one note per failed attempt, logged if the budget runs out
	var down []*replica // candidates that refused the connection or answered 503
	tried := false
	ci := 0
	for attempt := 0; attempt < g.cfg.Retry.Attempts(); attempt++ {
		if ctx.Err() != nil {
			if !tried {
				return attemptResult{err: ctx.Err()}
			}
			last.err = cmpErr(last.err, ctx.Err())
			return last
		}
		rep := g.nextAllowed(candidates, &ci, nil)
		if rep == nil && ci >= len(candidates) {
			// The candidate list is spent but attempt budget remains: wrap
			// back to the front of the ring. A transient failure on each of
			// two replicas must not 502 a request the third attempt (with
			// backoff) would have served. The wrap passes over replicas
			// that refused the connection or answered 503 during this
			// request — down or draining, they will not serve the retry —
			// unless no other candidate is left.
			ci = 0
			if rep = g.nextAllowed(candidates, &ci, down); rep == nil {
				ci = 0
				rep = g.nextAllowed(candidates, &ci, nil)
			}
		}
		if rep == nil {
			// Every candidate's breaker refuses: answer 503 now (status 0
			// sentinel) rather than hammering known-bad replicas.
			if !tried {
				return attemptResult{}
			}
			return last
		}
		var res attemptResult
		if attempt == 0 && g.cfg.HedgeAfter > 0 && len(candidates) > 1 {
			res = g.forwardHedged(ctx, rep, candidates, ci, body)
		} else {
			rep.requests.Add(1)
			res = g.forward(ctx, rep, body)
			g.record(ctx, res)
		}
		tried = true
		last = res
		switch classify(res) {
		case outcomeFinal:
			return res
		case outcomeShed:
			failed = append(failed, res.note())
			// Same replica again after its own hint (or backoff): the key's
			// warm cache lives there, and shedding means alive-but-busy.
			g.stats.Retries.Add(1)
			wait := g.cfg.Retry.Delay(attempt)
			if hint, ok := retry.RetryAfter(res.header); ok {
				wait = min(hint, g.cfg.MaxRetryAfterWait)
			}
			if err := g.cfg.Retry.Sleep(ctx, wait); err != nil {
				last.err = cmpErr(last.err, err)
				return last
			}
		case outcomeFailover:
			failed = append(failed, res.note())
			if res.status == http.StatusServiceUnavailable || errors.Is(res.err, syscall.ECONNREFUSED) {
				down = append(down, res.replica)
			}
			g.stats.Failovers.Add(1)
			ci++
			if err := g.cfg.Retry.Sleep(ctx, g.cfg.Retry.Delay(attempt)); err != nil {
				last.err = cmpErr(last.err, err)
				return last
			}
		}
	}
	g.stats.Exhausted.Add(1)
	g.logf("attempt budget spent: %s", strings.Join(failed, "; "))
	return last
}

// nextAllowed advances *ci past the candidates in skip and those whose
// breaker refuses, and returns the first admitted one (nil when the list
// is spent).
func (g *Gateway) nextAllowed(candidates []*replica, ci *int, skip []*replica) *replica {
	for ; *ci < len(candidates); *ci++ {
		rep := candidates[*ci]
		if !slices.Contains(skip, rep) && rep.breaker.Allow() {
			return rep
		}
	}
	return nil
}

// forward issues one proxied request and reads the full response, so the
// caller can retry or relay freely.
func (g *Gateway) forward(ctx context.Context, rep *replica, body []byte) attemptResult {
	hreq, err := http.NewRequestWithContext(ctx, http.MethodPost, rep.url+"/v1/compile", bytes.NewReader(body))
	if err != nil {
		return attemptResult{replica: rep, err: err}
	}
	hreq.Header.Set("Content-Type", "application/json")
	resp, err := g.client.Do(hreq)
	if err != nil {
		return attemptResult{replica: rep, err: err}
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return attemptResult{replica: rep, err: err}
	}
	return attemptResult{replica: rep, status: resp.StatusCode, header: resp.Header, body: data}
}

// record applies one attempt's outcome to its replica's breaker and
// failure counters. Results produced by our own hedge-loser cancellation
// (ctx still live but the attempt context canceled) are recorded by
// forwardHedged instead.
func (g *Gateway) record(ctx context.Context, res attemptResult) {
	if res.replica == nil {
		return
	}
	switch classify(res) {
	case outcomeFailover:
		// A transport error caused by the *client* hanging up is not the
		// replica's fault; don't trip its breaker.
		if res.err != nil && ctx.Err() != nil {
			return
		}
		res.replica.breaker.Failure()
		res.replica.failures.Add(1)
	case outcomeFinal:
		res.replica.breaker.Success()
	case outcomeShed:
		// 429 is the admission queue working as designed — the replica is
		// alive. Neither success (it refused) nor breaker failure.
	}
}

// forwardHedged races the primary against one hedge launched after
// HedgeAfter: the first final answer wins and the loser is canceled.
// Both failing degrades to the primary's result so the outer loop fails
// over normally.
func (g *Gateway) forwardHedged(ctx context.Context, primary *replica, candidates []*replica, nextIdx int, body []byte) attemptResult {
	hctx, cancel := context.WithCancel(ctx)
	defer cancel()

	results := make(chan attemptResult, 2)
	launch := func(rep *replica) {
		rep.requests.Add(1)
		go func() { results <- g.forward(hctx, rep, body) }()
	}
	launch(primary)

	inFlight := 1
	hedged := false
	var hedge *replica
	timer := g.cfg.Clock.After(g.cfg.HedgeAfter)
	var failed attemptResult
	haveFailed := false
	for inFlight > 0 {
		select {
		case <-timer:
			if hedged {
				timer = nil
				continue
			}
			hedged = true
			// Hedge onto the next breaker-admitted failover candidate.
			hi := nextIdx + 1
			if hedge = g.nextAllowed(candidates, &hi, nil); hedge != nil && hedge != primary {
				g.stats.Hedges.Add(1)
				launch(hedge)
				inFlight++
			}
		case res := <-results:
			// A loser canceled by us reports ctx.Canceled with the parent
			// still live: ignore it entirely (no breaker bookkeeping).
			if res.err != nil && hctx.Err() != nil && ctx.Err() == nil {
				inFlight--
				continue
			}
			g.record(ctx, res)
			if classify(res) != outcomeFailover {
				if hedged && hedge != nil && res.replica == hedge {
					g.stats.HedgeWins.Add(1)
				}
				return res // winner; defer cancel() reaps the loser
			}
			if !haveFailed || res.replica == primary {
				failed, haveFailed = res, true
			}
			inFlight--
		case <-ctx.Done():
			if haveFailed {
				failed.err = cmpErr(failed.err, ctx.Err())
				return failed
			}
			return attemptResult{replica: primary, err: ctx.Err()}
		}
	}
	return failed
}

// note renders a failed attempt for the log.
func (r attemptResult) note() string {
	if r.err != nil {
		return fmt.Sprintf("%s: %v", r.replica.url, r.err)
	}
	return fmt.Sprintf("%s: status %d", r.replica.url, r.status)
}

type outcome int

const (
	outcomeFinal outcome = iota
	outcomeShed
	outcomeFailover
)

// classify maps an attempt result onto the routing decision table.
func classify(res attemptResult) outcome {
	switch {
	case res.err != nil:
		return outcomeFailover
	case res.status == http.StatusTooManyRequests:
		return outcomeShed
	case res.status == http.StatusInternalServerError,
		res.status == http.StatusBadGateway,
		res.status == http.StatusServiceUnavailable:
		return outcomeFailover
	default:
		// 2xx, 4xx, and 504 (the deadline is spent either way) are final.
		return outcomeFinal
	}
}

func cmpErr(a, b error) error {
	if a != nil {
		return a
	}
	return b
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
