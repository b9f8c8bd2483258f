// Package loadgen is the closed-loop load generator for cratd and cratgw: a
// deterministic corpus of generated compile requests, sent by virtual
// clients, summarized as counts and latency percentiles. cratload and the
// service and gateway tests use it; the daemons themselves do not link it
// (make vet checks that).
package loadgen

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sort"
	"time"

	"crat/internal/emu/ptxgen"
	"crat/internal/pool"
	"crat/internal/ptx"
	"crat/internal/retry"
	"crat/internal/server"
)

// Options configures one closed-loop load run against a cratd
// endpoint: Concurrency virtual clients issue Requests requests drawn
// round-robin from a deterministic corpus of Kernels generated kernels.
// The same Seed/Kernels/Block always produces the same request bodies, so
// a repeated run against a warm daemon is answered entirely from cache —
// the service-smoke restart check depends on that.
type Options struct {
	Concurrency int           // closed-loop virtual clients (0 = 4)
	Requests    int           // total requests (0 = 2×Kernels)
	Kernels     int           // distinct generated kernels (0 = 4)
	Seed        int64         // corpus generation seed
	Block       int           // thread-block size for every request (0 = 64)
	Arch        string        // "" = fermi
	Verify      bool          // request oracle verification
	Timeout     time.Duration // client-side per-request deadline (0 = 30s)
	TimeoutMs   int           // server-side deadline sent in the request (0 = daemon default)
	// CancelFrac injects client aborts: that fraction of requests is
	// canceled after CancelAfter (default Timeout/10) to exercise the
	// daemon's canceled-client path.
	CancelFrac  float64
	CancelAfter time.Duration
	// Retries re-sends a shed (429) request up to N times through
	// internal/retry (full-jitter exponential backoff, Retry-After hints
	// honored and capped at 1s). 0 = count the shed and move on, which is
	// what the overload experiments want.
	Retries int
	// CaptureDecisions records a canonical digest of every 200 response's
	// content fields, keyed by corpus index, in Report.Decisions.
	// Two runs over the same corpus must produce identical digest lists
	// no matter which replica (or cache tier) served each request — the
	// chaos matrix's byte-identical check compares exactly these.
	CaptureDecisions bool
}

func (o Options) withDefaults() Options {
	if o.Concurrency <= 0 {
		o.Concurrency = 4
	}
	if o.Kernels <= 0 {
		o.Kernels = 4
	}
	if o.Requests <= 0 {
		o.Requests = 2 * o.Kernels
	}
	if o.Block <= 0 {
		o.Block = 64
	}
	if o.Timeout <= 0 {
		o.Timeout = 30 * time.Second
	}
	if o.CancelAfter <= 0 {
		o.CancelAfter = o.Timeout / 10
	}
	return o
}

// Report aggregates one load run. Latency percentiles cover completed
// (200) requests only — i.e. the latency the daemon's admission control
// promises to bound by the deadline.
type Report struct {
	Requests int           `json:"requests"`
	OK       int           `json:"ok"`
	Cached   int           `json:"cached"`
	Degraded int           `json:"degraded"`
	Shed     int           `json:"shed"`
	Timeouts int           `json:"timeouts"` // client- or server-side deadline
	Canceled int           `json:"canceled"` // injected aborts
	Failed   int           `json:"failed"`   // everything else
	Elapsed  time.Duration `json:"elapsed"`
	RPS      float64       `json:"rps"`
	P50      time.Duration `json:"p50"`
	P95      time.Duration `json:"p95"`
	P99      time.Duration `json:"p99"`
	MaxOK    time.Duration `json:"max_ok"`
	ByStatus map[int]int   `json:"by_status"`
	// Decisions (with Options.CaptureDecisions) holds one canonical
	// digest line per corpus index that completed at least once, sorted
	// by index. Inconsistent counts corpus indices whose repeats returned
	// DIFFERENT content — always zero when the service is honest, no
	// matter which replica served which repeat.
	Decisions    []string `json:"decisions,omitempty"`
	Inconsistent int      `json:"inconsistent,omitempty"`
}

// decisionDigest canonicalizes a response's content-addressed fields
// (everything except the per-serve Cached/CacheTier/ElapsedMs metadata).
func decisionDigest(cr *server.CompileResponse) string {
	return fmt.Sprintf("kernel=%s arch=%s reg=%d tlp=%d candidates=%d profile_runs=%d degraded=%t divergence=%q ptx_sha256=%x",
		cr.Kernel, cr.Arch, cr.Reg, cr.TLP, cr.Candidates, cr.ProfileRuns,
		cr.Degraded, cr.Divergence, sha256.Sum256([]byte(cr.PTX)))
}

// Corpus generates n deterministic compile requests: one ptxgen kernel per
// seed offset, printed to module text.
func Corpus(n int, seed int64, block int) []server.CompileRequest {
	reqs := make([]server.CompileRequest, n)
	for i := range reqs {
		k := ptxgen.Generate(ptxgen.Config{Seed: seed + int64(i), Block: block})
		reqs[i] = server.CompileRequest{PTX: ptx.Print(k), Block: block}
	}
	return reqs
}

// Run drives baseURL with a closed loop of opts.Concurrency clients
// until opts.Requests requests have completed. The closed loop reuses the
// worker pool's index-stealing dispatch, so per-request outcomes land in
// pre-sized slices and the report is independent of scheduling order.
func Run(ctx context.Context, baseURL string, opts Options) (*Report, error) {
	opts = opts.withDefaults()
	corpus := Corpus(opts.Kernels, opts.Seed, opts.Block)
	for i := range corpus {
		corpus[i].Arch = opts.Arch
		corpus[i].TimeoutMs = opts.TimeoutMs
		if opts.Verify {
			v := true
			corpus[i].Verify = &v
		}
	}
	client := &http.Client{}
	url := baseURL + "/v1/compile"

	type outcome struct {
		status   int
		dur      time.Duration
		cached   bool
		degraded bool
		err      error
		canceled bool
		digest   string
	}
	outs := make([]outcome, opts.Requests)
	cancelEvery := 0
	if opts.CancelFrac > 0 {
		cancelEvery = int(1 / opts.CancelFrac)
	}
	// The 429 retry loop is the shared internal/retry discipline: full
	// jitter between re-sends, Retry-After hints honored (capped at 1s so
	// a misbehaving hint can't stall the run), and no retry once ctx dies.
	policy := retry.Policy{
		MaxAttempts: opts.Retries + 1,
		BaseDelay:   100 * time.Millisecond,
		MaxDelay:    time.Second,
	}

	start := time.Now()
	runErr := pool.RunCtx(ctx, opts.Concurrency, opts.Requests, func(i int) {
		req := corpus[i%len(corpus)]
		buf, _ := json.Marshal(req)
		o := &outs[i]

		retry.Do(ctx, policy, func(a *retry.Attempt) (bool, error) {
			timeout := opts.Timeout
			if cancelEvery > 0 && i%cancelEvery == cancelEvery-1 {
				o.canceled = true
				timeout = opts.CancelAfter
			}
			rctx, cancel := context.WithTimeout(ctx, timeout)
			defer cancel()
			t0 := time.Now()
			hreq, err := http.NewRequestWithContext(rctx, http.MethodPost, url, bytes.NewReader(buf))
			if err != nil {
				o.err = err
				return true, nil
			}
			hreq.Header.Set("Content-Type", "application/json")
			resp, err := client.Do(hreq)
			o.dur = time.Since(t0)
			if err != nil {
				o.err = err
				return true, nil
			}
			defer resp.Body.Close()
			o.status = resp.StatusCode
			if resp.StatusCode == http.StatusTooManyRequests {
				if hint, ok := retry.RetryAfter(resp.Header); ok {
					a.SetHint(min(hint, time.Second))
				}
				io.Copy(io.Discard, resp.Body)
				return false, nil // retry (up to the policy's budget)
			}
			if resp.StatusCode == http.StatusOK {
				var cr server.CompileResponse
				if derr := json.NewDecoder(resp.Body).Decode(&cr); derr == nil {
					o.cached = cr.Cached
					o.degraded = cr.Degraded
					if opts.CaptureDecisions {
						o.digest = decisionDigest(&cr)
					}
				}
			}
			io.Copy(io.Discard, resp.Body)
			return true, nil
		})
	})

	rep := &Report{Requests: opts.Requests, Elapsed: time.Since(start), ByStatus: map[int]int{}}
	var okDurs []time.Duration
	for i := range outs {
		o := &outs[i]
		switch {
		case o.err != nil && o.canceled:
			rep.Canceled++
		case o.err != nil && pool.IsCancellation(o.err):
			rep.Timeouts++
		case o.err != nil:
			rep.Failed++
		case o.status == http.StatusOK:
			rep.OK++
			rep.ByStatus[o.status]++
			okDurs = append(okDurs, o.dur)
			if o.cached {
				rep.Cached++
			}
			if o.degraded {
				rep.Degraded++
			}
		case o.status == http.StatusTooManyRequests:
			rep.Shed++
			rep.ByStatus[o.status]++
		case o.status == http.StatusGatewayTimeout:
			rep.Timeouts++
			rep.ByStatus[o.status]++
		case o.status != 0:
			rep.Failed++
			rep.ByStatus[o.status]++
		default:
			rep.Failed++
		}
	}
	if len(okDurs) > 0 {
		sort.Slice(okDurs, func(i, j int) bool { return okDurs[i] < okDurs[j] })
		rep.P50 = percentile(okDurs, 50)
		rep.P95 = percentile(okDurs, 95)
		rep.P99 = percentile(okDurs, 99)
		rep.MaxOK = okDurs[len(okDurs)-1]
	}
	if rep.Elapsed > 0 {
		rep.RPS = float64(rep.OK) / rep.Elapsed.Seconds()
	}
	if opts.CaptureDecisions {
		// Fold repeats of the same corpus index together: every repeat
		// must have returned identical content, or the service handed two
		// clients different Decisions for the same compile.
		byIdx := make(map[int]string, len(corpus))
		for i := range outs {
			o := &outs[i]
			if o.digest == "" {
				continue
			}
			idx := i % len(corpus)
			if prev, ok := byIdx[idx]; ok && prev != o.digest {
				rep.Inconsistent++
				continue
			}
			byIdx[idx] = o.digest
		}
		idxs := make([]int, 0, len(byIdx))
		for idx := range byIdx {
			idxs = append(idxs, idx)
		}
		sort.Ints(idxs)
		for _, idx := range idxs {
			rep.Decisions = append(rep.Decisions, fmt.Sprintf("idx=%d %s", idx, byIdx[idx]))
		}
	}
	if runErr != nil && rep.OK == 0 {
		return rep, fmt.Errorf("load run aborted: %w", runErr)
	}
	return rep, nil
}

// percentile returns the p-th percentile of sorted durations
// (nearest-rank).
func percentile(sorted []time.Duration, p int) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	idx := (len(sorted)*p + 99) / 100
	if idx < 1 {
		idx = 1
	}
	if idx > len(sorted) {
		idx = len(sorted)
	}
	return sorted[idx-1]
}

// Summary renders the report as the human-readable cratload output.
func (r *Report) Summary() string {
	var b bytes.Buffer
	fmt.Fprintf(&b, "requests %d: ok %d (cached %d, degraded %d)  shed %d  timeout %d  canceled %d  failed %d\n",
		r.Requests, r.OK, r.Cached, r.Degraded, r.Shed, r.Timeouts, r.Canceled, r.Failed)
	if r.Inconsistent > 0 {
		fmt.Fprintf(&b, "INCONSISTENT: %d corpus entries returned different Decisions across repeats\n", r.Inconsistent)
	}
	fmt.Fprintf(&b, "throughput %.1f req/s over %s\n", r.RPS, r.Elapsed.Round(time.Millisecond))
	if r.OK > 0 {
		fmt.Fprintf(&b, "latency p50 %s  p95 %s  p99 %s  max %s\n",
			r.P50.Round(time.Microsecond), r.P95.Round(time.Microsecond),
			r.P99.Round(time.Microsecond), r.MaxOK.Round(time.Microsecond))
	}
	return b.String()
}
