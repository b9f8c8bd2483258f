// Command cratload is the closed-loop load generator for cratd and the
// cratgw gateway: it drives POST /v1/compile with a deterministic corpus
// of generated kernels and reports throughput and latency percentiles,
// plus how the service's robustness machinery responded (sheds,
// timeouts, degraded Decisions, and — against a gateway — retries,
// failovers, and hedges scraped from /statsz).
//
// Usage:
//
//	cratload -addr http://127.0.0.1:8177 [-n 64] [-c 8] [-kernels 8]
//	         [-seed 1] [-block 64] [-timeout 30s] [-cancel-frac 0]
//	         [-retries 0] [-verify] [-version]
//
// With -chaos-matrix cratload instead spawns and supervises its own
// fleets — cratd replicas plus a cratgw fronting them — and drives the
// full chaos scenario matrix: {sigkill, torn-journal, enospc,
// fsync-fail, conn-reset, latency} x {during-load, during-drain,
// during-restart}, each cell against a fresh 2-replica fleet with
// deterministic fault-injection specs (see internal/faultinject):
//
//	cratload -chaos-matrix -fleet-dir DIR -cratd-bin ./cratd
//	         -cratgw-bin ./cratgw [-n 48] [-c 8] [-kernels 12] [-seed 7]
//
// Each cell's disruption starts once the gateway has completed part of
// the first round of load, the load repeats the corpus in rounds until
// the victim is back in the ring plus one more round, and every round
// must see zero client-visible failures and Decision digests
// byte-identical to a fault-free single-replica baseline. `make
// chaos-smoke` is this mode.
//
// The corpus is fully determined by -seed/-kernels/-block: re-running
// the same invocation against a warm daemon is answered entirely from
// cache, which `make service-smoke` uses to prove restarts re-simulate
// nothing.
//
// cratload checks behaviour, not performance: the service workloads of
// the benchmark (`make bench`, bench/README.md) measure cratd and cratgw.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"time"

	"crat/internal/buildinfo"
	"crat/internal/loadgen"
	"crat/internal/shard"
)

func main() {
	addr := flag.String("addr", "http://127.0.0.1:8177", "cratd or cratgw base URL")
	n := flag.Int("n", 64, "total requests (per round with -chaos-matrix)")
	c := flag.Int("c", 8, "closed-loop concurrency")
	kernels := flag.Int("kernels", 8, "distinct generated kernels in the corpus")
	seed := flag.Int64("seed", 1, "corpus generation seed")
	block := flag.Int("block", 64, "thread-block size")
	arch := flag.String("arch", "", "target architecture (empty = daemon default)")
	timeout := flag.Duration("timeout", 30*time.Second, "client-side per-request deadline")
	timeoutMs := flag.Int("timeout-ms", 0, "server-side deadline sent with each request (0 = daemon default)")
	cancelFrac := flag.Float64("cancel-frac", 0, "fraction of requests aborted client-side mid-flight")
	retries := flag.Int("retries", 0, "retry shed (429) requests up to N times, honoring Retry-After")
	verify := flag.Bool("verify", false, "request oracle verification on every compile")
	version := flag.Bool("version", false, "print build information and exit")

	// Chaos-matrix mode.
	chaosMatrix := flag.Bool("chaos-matrix", false, "run the full fault x phase chaos matrix against fresh fleets (uses -cratd-bin/-cratgw-bin/-fleet-dir/-n/-c/-kernels/-seed) and exit")
	cratdBin := flag.String("cratd-bin", "cratd", "cratd binary for -chaos-matrix")
	cratgwBin := flag.String("cratgw-bin", "cratgw", "cratgw binary for -chaos-matrix")
	fleetDir := flag.String("fleet-dir", "", "fleet working dir (caches, logs, addr files); required with -chaos-matrix")
	flag.Parse()

	if *version {
		buildinfo.Print("cratload")
		return
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	if *chaosMatrix {
		if *fleetDir == "" {
			fmt.Fprintln(os.Stderr, "cratload: -chaos-matrix requires -fleet-dir")
			os.Exit(1)
		}
		err := runChaosMatrix(ctx, chaosMatrixConfig{
			dir:        *fleetDir,
			cratdBin:   *cratdBin,
			gatewayBin: *cratgwBin,
			load: loadgen.Options{
				Concurrency: *c,
				Requests:    *n,
				Kernels:     *kernels,
				Seed:        *seed,
			},
		})
		if err != nil {
			fmt.Fprintln(os.Stderr, "cratload:", err)
			os.Exit(1)
		}
		fmt.Println("chaos-matrix: all cells passed")
		return
	}

	fmt.Fprintf(os.Stderr, "cratload: %d requests, %d concurrent, %d kernels (seed %d) -> %s\n",
		*n, *c, *kernels, *seed, *addr)
	rep, err := loadgen.Run(ctx, *addr, loadgen.Options{
		Concurrency: *c,
		Requests:    *n,
		Kernels:     *kernels,
		Seed:        *seed,
		Block:       *block,
		Arch:        *arch,
		Verify:      *verify,
		Timeout:     *timeout,
		TimeoutMs:   *timeoutMs,
		CancelFrac:  *cancelFrac,
		Retries:     *retries,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "cratload:", err)
		os.Exit(1)
	}
	fmt.Print(rep.Summary())

	// Only a gateway's /statsz lists replicas.
	var gw shard.GatewaySnapshot
	if getStatsz(*addr, &gw) == nil && len(gw.Replicas) > 0 {
		fmt.Printf("gateway: retries %d  failovers %d  hedges %d (won %d)  breaker-opens %d  ejections %d\n",
			gw.Retries, gw.Failovers, gw.Hedges, gw.HedgeWins, gw.BreakerOpens, gw.Ejections)
	}
	if rep.Failed > 0 || rep.OK == 0 {
		os.Exit(1)
	}
}

// getStatsz decodes base/statsz into v.
func getStatsz(base string, v any) error {
	client := &http.Client{Timeout: 5 * time.Second}
	resp, err := client.Get(base + "/statsz")
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("statsz: %s", resp.Status)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}
