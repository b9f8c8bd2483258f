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
//	         [-retries 0] [-verify] [-decisions-out FILE] [-version]
//
// Multi-replica mode spawns and supervises its own fleet — N cratd
// replicas plus a cratgw fronting them — and aims the load at the
// gateway:
//
//	cratload -replicas 3 -cratd-bin ./cratd -cratgw-bin ./cratgw
//	         -fleet-dir /tmp/fleet [-chaos] [-chaos-delay 500ms]
//	         [-hedge-after 0] ...
//
// With -chaos a random replica is SIGKILLed mid-load and restarted on
// the same address with its (warm) cache journal; the run fails unless
// every request was still answered 200 (the gateway's health ejection,
// circuit breaking, and failover absorbed the crash) and all repeats of
// a corpus entry returned identical Decisions. -decisions-out writes one
// canonical digest line per corpus entry, so a multi-replica chaos run
// can be diffed byte-for-byte against a single-replica baseline.
//
// With -chaos-matrix cratload instead drives the full chaos scenario
// matrix — {sigkill, torn-journal, enospc, fsync-fail, conn-reset,
// latency} x {during-load, during-drain, during-restart} — each cell
// against a fresh 2-replica fleet with deterministic fault-injection
// specs (see internal/faultinject), asserting zero client-visible
// failures and Decision digests byte-identical to a fault-free
// baseline. `make chaos-smoke` is this mode.
//
// The corpus is fully determined by -seed/-kernels/-block: re-running
// the same invocation against a warm daemon is answered entirely from
// cache, which `make service-smoke` uses to prove restarts re-simulate
// nothing; `make shard-smoke` layers the fleet chaos run on top.
//
// cratload checks behaviour, not performance: the service workloads of
// the benchmark (`make bench`, bench/README.md) measure cratd and cratgw.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math/rand"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"time"

	"crat/internal/buildinfo"
	"crat/internal/server"
	"crat/internal/shard"
)

func main() {
	addr := flag.String("addr", "http://127.0.0.1:8177", "cratd or cratgw base URL (ignored with -replicas)")
	n := flag.Int("n", 64, "total requests")
	c := flag.Int("c", 8, "closed-loop concurrency")
	kernels := flag.Int("kernels", 8, "distinct generated kernels in the corpus")
	seed := flag.Int64("seed", 1, "corpus generation seed (also seeds the chaos victim choice)")
	block := flag.Int("block", 64, "thread-block size")
	arch := flag.String("arch", "", "target architecture (empty = daemon default)")
	timeout := flag.Duration("timeout", 30*time.Second, "client-side per-request deadline")
	timeoutMs := flag.Int("timeout-ms", 0, "server-side deadline sent with each request (0 = daemon default)")
	cancelFrac := flag.Float64("cancel-frac", 0, "fraction of requests aborted client-side mid-flight")
	retries := flag.Int("retries", 0, "retry shed (429) requests up to N times, honoring Retry-After")
	verify := flag.Bool("verify", false, "request oracle verification on every compile")
	decisionsOut := flag.String("decisions-out", "", "write one canonical Decision digest line per corpus entry to this file")
	version := flag.Bool("version", false, "print build information and exit")

	// Fleet mode.
	replicas := flag.Int("replicas", 0, "spawn a fleet: N cratd replicas behind a cratgw, and load the gateway")
	cratdBin := flag.String("cratd-bin", "cratd", "cratd binary for -replicas mode")
	cratgwBin := flag.String("cratgw-bin", "cratgw", "cratgw binary for -replicas mode")
	fleetDir := flag.String("fleet-dir", "", "fleet working dir (caches, logs, addr files); required with -replicas")
	hedgeAfter := flag.Duration("hedge-after", 0, "gateway tail-latency hedge delay in -replicas mode (0 = off)")
	chaos := flag.Bool("chaos", false, "SIGKILL a random replica mid-load and restart it (requires -replicas >= 2)")
	chaosDelay := flag.Duration("chaos-delay", 500*time.Millisecond, "how far into the load the chaos kill strikes")
	chaosMatrix := flag.Bool("chaos-matrix", false, "run the full fault x phase chaos matrix against fresh fleets (uses -cratd-bin/-cratgw-bin/-fleet-dir/-n/-c/-kernels/-seed) and exit")
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
		err := shard.RunChaosMatrix(ctx, shard.ChaosMatrixConfig{
			Dir:         *fleetDir,
			CratdBin:    *cratdBin,
			GatewayBin:  *cratgwBin,
			Requests:    *n,
			Concurrency: *c,
			Kernels:     *kernels,
			Seed:        *seed,
			Log:         os.Stderr,
		})
		if err != nil {
			fmt.Fprintln(os.Stderr, "cratload:", err)
			os.Exit(1)
		}
		fmt.Println("chaos-matrix: all cells passed")
		return
	}

	target := *addr
	var fleet *shard.Fleet
	if *replicas > 0 {
		if *fleetDir == "" {
			fmt.Fprintln(os.Stderr, "cratload: -replicas requires -fleet-dir")
			os.Exit(1)
		}
		if *chaos && *replicas < 2 {
			fmt.Fprintln(os.Stderr, "cratload: -chaos needs -replicas >= 2 (a 1-replica fleet has nowhere to fail over)")
			os.Exit(1)
		}
		var err error
		fleet, err = shard.StartFleet(shard.FleetConfig{
			Dir:        *fleetDir,
			CratdBin:   *cratdBin,
			GatewayBin: *cratgwBin,
			Replicas:   *replicas,
			Verify:     *verify,
			HedgeAfter: *hedgeAfter,
		})
		if err != nil {
			fmt.Fprintln(os.Stderr, "cratload: starting fleet:", err)
			os.Exit(1)
		}
		defer func() {
			if err := fleet.Stop(); err != nil {
				fmt.Fprintln(os.Stderr, "cratload: fleet stop:", err)
				os.Exit(1)
			}
		}()
		target = fleet.GatewayURL()
		fmt.Fprintf(os.Stderr, "cratload: fleet of %d replicas up behind %s\n", *replicas, target)
	}

	chaosDone := make(chan string, 1)
	if *chaos && fleet != nil {
		go func() {
			rng := rand.New(rand.NewSource(*seed))
			victim := rng.Intn(fleet.NumReplicas())
			time.Sleep(*chaosDelay)
			if err := fleet.KillReplica(victim); err != nil {
				chaosDone <- fmt.Sprintf("kill replica %d: %v", victim, err)
				return
			}
			fmt.Fprintf(os.Stderr, "cratload: CHAOS: SIGKILLed replica %d (%s) mid-load\n",
				victim, fleet.ReplicaURL(victim))
			time.Sleep(500 * time.Millisecond)
			if err := fleet.RestartReplica(victim); err != nil {
				chaosDone <- fmt.Sprintf("restart replica %d: %v", victim, err)
				return
			}
			fmt.Fprintf(os.Stderr, "cratload: CHAOS: restarted replica %d on its original address\n", victim)
			chaosDone <- ""
		}()
	} else {
		chaosDone <- ""
	}

	fmt.Fprintf(os.Stderr, "cratload: %d requests, %d concurrent, %d kernels (seed %d) -> %s\n",
		*n, *c, *kernels, *seed, target)
	rep, err := server.RunLoad(ctx, target, server.LoadOptions{
		Concurrency:      *c,
		Requests:         *n,
		Kernels:          *kernels,
		Seed:             *seed,
		Block:            *block,
		Arch:             *arch,
		Verify:           *verify,
		Timeout:          *timeout,
		TimeoutMs:        *timeoutMs,
		CancelFrac:       *cancelFrac,
		Retries:          *retries,
		CaptureDecisions: *decisionsOut != "" || *replicas > 0,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "cratload:", err)
		os.Exit(1)
	}
	if chaosErr := <-chaosDone; chaosErr != "" {
		fmt.Fprintln(os.Stderr, "cratload: chaos:", chaosErr)
		os.Exit(1)
	}
	fmt.Print(rep.Summary())

	gw := scrapeGatewayStats(target)
	if gw != nil {
		fmt.Printf("gateway: retries %d  failovers %d  hedges %d (won %d)  breaker-opens %d  ejections %d\n",
			gw["retries"], gw["failovers"], gw["hedges"], gw["hedge_wins"],
			gw["breaker_opens"], gw["ejections"])
	}
	if *decisionsOut != "" {
		if err := os.WriteFile(*decisionsOut, []byte(strings.Join(rep.Decisions, "\n")+"\n"), 0o644); err != nil {
			fmt.Fprintln(os.Stderr, "cratload: writing -decisions-out:", err)
			os.Exit(1)
		}
	}
	switch {
	case rep.Inconsistent > 0:
		fmt.Fprintf(os.Stderr, "cratload: FAIL: %d corpus entries returned inconsistent Decisions\n", rep.Inconsistent)
		os.Exit(1)
	case *replicas > 0 && rep.OK+rep.Canceled < rep.Requests:
		// The fleet acceptance bar: every non-canceled request must have
		// been answered 200 despite any chaos — failover is the product.
		fmt.Fprintf(os.Stderr, "cratload: FAIL: %d of %d requests were client-visible failures\n",
			rep.Requests-rep.OK-rep.Canceled, rep.Requests)
		os.Exit(1)
	case *replicas == 0 && (rep.Failed > 0 || rep.OK == 0):
		os.Exit(1)
	}
}

// scrapeGatewayStats fetches target/statsz and returns the gateway's
// fleet counters, or nil when the target is a plain cratd (no
// "failovers" field) or unreachable.
func scrapeGatewayStats(target string) map[string]int64 {
	client := &http.Client{Timeout: 5 * time.Second}
	resp, err := client.Get(target + "/statsz")
	if err != nil {
		return nil
	}
	defer resp.Body.Close()
	var raw map[string]json.RawMessage
	if err := json.NewDecoder(resp.Body).Decode(&raw); err != nil {
		return nil
	}
	if _, isGateway := raw["failovers"]; !isGateway {
		return nil
	}
	out := map[string]int64{}
	for _, k := range []string{"retries", "failovers", "hedges", "hedge_wins", "breaker_opens", "ejections", "no_replica", "requests", "completed"} {
		var v int64
		if m, ok := raw[k]; ok {
			json.Unmarshal(m, &v)
		}
		out[k] = v
	}
	return out
}
