package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"time"

	"crat/internal/loadgen"
	"crat/internal/server"
	"crat/internal/shard"
)

// The chaos scenario matrix (cratload -chaos-matrix, `make chaos-smoke`):
// every fault kind crossed with every lifecycle phase, each cell a fresh
// 2-replica fleet under closed-loop load, asserting the user-facing
// contract — zero client-visible failures, zero inconsistent Decisions,
// and Decision digests byte-identical to a fault-free single-replica
// baseline. The faults are count-based internal/faultinject specs (or
// process signals).
//
// Each disruption overlaps the load by construction: it starts once the
// gateway's /statsz `completed` reaches 1/disruptAt of the first round,
// and the cell keeps re-running the corpus in rounds until the
// disruption has returned and the victim is back in the ring, then runs
// one more round. A round that ends before the disruption began ends
// the load, so a disruption that misses the load lands on an idle fleet
// and fails the cell's evidence checks.

// chaosFaults are the matrix rows. Victim replica 0 takes the
// process/disk faults; the transport faults arm the gateway.
var chaosFaults = []string{
	"sigkill",      // SIGKILL the victim, restart on the same address
	"torn-journal", // kill, chop the journal's tail (power-cut tear), restart
	"enospc",       // injected ENOSPC on the victim's journal appends
	"fsync-fail",   // injected EIO on the victim's journal fsyncs
	"conn-reset",   // injected connection resets on gateway→replica requests
	"latency",      // injected latency spikes on gateway→replica requests
}

// chaosPhases are the matrix columns: what happens to the victim once
// the load is underway. Injected faults are armed from process start
// and fire on their own counters; the phase decides whether a crash
// (SIGKILL) or a graceful drain (SIGTERM) accompanies them.
var chaosPhases = []string{
	"during-load",    // process faults: killed, kept down until the gateway fails over, restarted; injected faults: no signal
	"during-drain",   // victim is SIGTERMed (drains under load) and restarted
	"during-restart", // victim is SIGKILLed and restarted at once
}

// disruptAt sets the progress gate: a cell's disruption starts once the
// gateway has completed 1/disruptAt of the first round's requests.
const disruptAt = 8

// gateBudget bounds every wait on the gateway's counters.
const gateBudget = 15 * time.Second

// chaosMatrixConfig sizes one matrix run.
type chaosMatrixConfig struct {
	// dir holds one fleet working directory per cell.
	dir        string
	cratdBin   string
	gatewayBin string
	// load is one round's shape; every cell and round replays the same
	// corpus.
	load loadgen.Options
}

// runChaosMatrix runs every cell, printing one line per cell to stderr,
// and returns an error naming each failed cell (nil = the whole matrix
// held the contract). Cells run serially — each gets the machine to
// itself, keeping latency assertions honest.
func runChaosMatrix(ctx context.Context, cfg chaosMatrixConfig) error {
	cfg.load.CaptureDecisions = true

	// Fault-free single-replica baseline: the Decision digests every cell
	// must reproduce byte-identically.
	baseline, err := runMatrixCell(ctx, cfg, "baseline", "", "")
	if err == nil {
		err = assertRounds(baseline, "")
	}
	if err != nil {
		return fmt.Errorf("chaos-matrix baseline: %w %s", err, baseline.diag())
	}
	base := baseline.rounds[0]
	fmt.Fprintf(os.Stderr, "chaos-matrix: baseline ok (%d decisions, %d/%d ok)\n",
		len(base.Decisions), base.OK, base.Requests)
	want := strings.Join(base.Decisions, "\n")

	var failures []string
	for _, fault := range chaosFaults {
		for _, phase := range chaosPhases {
			if ctx.Err() != nil {
				return ctx.Err()
			}
			cell := fault + "/" + phase
			res, err := runMatrixCell(ctx, cfg, fault+"-"+phase, fault, phase)
			if err == nil {
				err = assertCell(res, want, fault, phase)
			}
			if err != nil {
				failures = append(failures, fmt.Sprintf("%s: %v", cell, err))
				fmt.Fprintf(os.Stderr, "chaos-matrix: %-28s FAIL: %v %s\n", cell, err, res.diag())
				continue
			}
			ok, total := 0, 0
			for _, r := range res.rounds {
				ok += r.OK
				total += r.Requests
			}
			fmt.Fprintf(os.Stderr, "chaos-matrix: %-28s ok (%d rounds, %d/%d ok; %d in flight at disruption, %d round(s) after victim back; failovers %d, salvaged %d)\n",
				cell, len(res.rounds), ok, total, res.inFlight, res.roundsAfterBack,
				res.gw.Failovers, res.victimSalvaged)
		}
	}
	if len(failures) > 0 {
		return fmt.Errorf("chaos-matrix: %d of %d cells failed:\n  %s",
			len(failures), len(chaosFaults)*len(chaosPhases), strings.Join(failures, "\n  "))
	}
	return nil
}

// cellResult carries one cell's evidence: every round's load report,
// when the disruption landed, and the counters scraped before teardown.
type cellResult struct {
	dir             string
	rounds          []*loadgen.Report
	inFlight        int64 // gateway requests received but not yet completed when the disruption began
	roundsAfterBack int   // rounds started after the victim was back in the ring
	gw              shard.GatewaySnapshot
	victimSalvaged  int // victim journal salvaged_tail + quarantined
	tornApplied     bool
	stopErr         error
}

// diag names where a failed cell left its logs and the gateway's
// attempt-loop counters, enough to start from the kept cratgw.log.
func (r *cellResult) diag() string {
	return fmt.Sprintf("[fleet dir %s; gateway retries %d, failovers %d, exhausted %d]",
		r.dir, r.gw.Retries, r.gw.Failovers, r.gw.Exhausted)
}

// runMatrixCell starts a fleet (1 replica for the baseline, 2 for fault
// cells), runs the load in rounds while the cell's disruption lands,
// scrapes the evidence, and tears the fleet down. The result is non-nil
// even on error, for its diagnostics.
func runMatrixCell(ctx context.Context, cfg chaosMatrixConfig, name, fault, phase string) (*cellResult, error) {
	fc := fleetConfig{
		dir:        filepath.Join(cfg.dir, name),
		cratdBin:   cfg.cratdBin,
		gatewayBin: cfg.gatewayBin,
		replicas:   2,
	}
	if fault == "" {
		fc.replicas = 1
	}
	// Fault arming. The disk-fault thresholds are tuned to the victim's
	// startup footprint (manifest write = 1 write + 2 fsyncs) so the
	// replica always boots and the fault lands on journal appends.
	switch fault {
	case "enospc":
		fc.replicaFaults = []string{"enospc:after=2,count=2"}
	case "fsync-fail":
		fc.replicaFaults = []string{"fsync-fail:nth=5,count=2"}
	case "conn-reset":
		fc.gatewayFault = "conn-reset:every=9"
	case "latency":
		fc.gatewayFault = "latency:every=6,delay=150ms"
	}

	res := &cellResult{dir: fc.dir}
	f, err := startFleet(fc)
	if err != nil {
		return res, fmt.Errorf("starting fleet: %w", err)
	}
	stopped := false
	defer func() {
		if !stopped {
			f.stop()
		}
	}()

	// The rounds: run the corpus until a round that started with the
	// victim back has finished, or until a round finishes before the
	// disruption began.
	var begun, back atomic.Bool
	if fault == "" {
		begun.Store(true)
		back.Store(true)
	}
	loadDone := make(chan error, 1)
	go func() {
		for ctx.Err() == nil {
			after := back.Load()
			rep, err := loadgen.Run(ctx, f.gatewayURL(), cfg.load)
			if err != nil {
				loadDone <- err
				return
			}
			res.rounds = append(res.rounds, rep)
			if after {
				res.roundsAfterBack++
			}
			if after || !begun.Load() {
				break
			}
		}
		loadDone <- nil
	}()

	var derr error
	if fault != "" {
		derr = disrupt(ctx, f, cfg, fault, phase, res, &begun)
		back.Store(true)
	}
	lerr := <-loadDone

	// Evidence scrape before teardown: the gateway's attempt-loop
	// counters and the victim's own journal health.
	getStatsz(f.gatewayURL(), &res.gw)
	var victim server.StatsSnapshot
	if getStatsz(f.replicaURL(0), &victim) == nil && victim.Journal != nil {
		res.victimSalvaged = victim.Journal.SalvagedTail + victim.Journal.Quarantined
	}

	stopped = true
	res.stopErr = f.stop()
	switch {
	case ctx.Err() != nil:
		return res, ctx.Err()
	case lerr != nil:
		return res, fmt.Errorf("load: %w", lerr)
	case derr != nil:
		return res, fmt.Errorf("disruption: %w", derr)
	}
	return res, nil
}

// disrupt waits for the progress gate, then lands the cell's action on
// victim replica 0 and returns once the victim is back in the ring.
func disrupt(ctx context.Context, f *fleet, cfg chaosMatrixConfig, fault, phase string, res *cellResult, begun *atomic.Bool) error {
	const victim = 0
	gate := int64(max(1, cfg.load.Requests/disruptAt))
	at, err := waitGateway(ctx, f, fmt.Sprintf("completed >= %d", gate), func(s *shard.GatewaySnapshot) bool {
		return s.Completed >= gate
	})
	if err != nil {
		return err
	}
	begun.Store(true)
	res.inFlight = at.Requests - at.Completed

	switch {
	case phase == "during-drain":
		// A drain that exits nonzero under an injected fault is the server
		// degrading as designed (the flush hit the fault); the contract
		// under test is the client's, so log it and move on.
		if err := f.termReplica(victim); err != nil {
			fmt.Fprintf(os.Stderr, "chaos-matrix: victim drain under fault: %v\n", err)
		}
	case phase == "during-restart" || fault == "sigkill" || fault == "torn-journal":
		if err := f.killReplica(victim); err != nil {
			return fmt.Errorf("kill: %w", err)
		}
	default:
		// Injected faults during load fire in-band; the victim never leaves.
		return nil
	}
	if fault == "torn-journal" {
		// Best-effort: the victim may not have journaled anything yet when
		// it went down; an untearable journal just skips the salvage assert.
		if err := f.truncateJournalTail(victim, 7); err != nil {
			fmt.Fprintf(os.Stderr, "chaos-matrix: journal tear skipped: %v\n", err)
		} else {
			res.tornApplied = true
		}
	}
	if phase == "during-load" {
		// Keep the victim down until the gateway has moved its traffic.
		if _, err := waitGateway(ctx, f, "a failover after the kill", func(s *shard.GatewaySnapshot) bool {
			return s.Failovers > at.Failovers
		}); err != nil {
			return err
		}
	}
	if err := f.restartReplica(victim); err != nil {
		return fmt.Errorf("restart: %w", err)
	}
	_, err = waitGateway(ctx, f, "the victim back in the ring", func(s *shard.GatewaySnapshot) bool {
		return s.HealthyReplicas == len(f.replicas)
	})
	return err
}

// waitGateway polls the gateway's /statsz until cond holds, returning
// the snapshot that satisfied it.
func waitGateway(ctx context.Context, f *fleet, what string, cond func(*shard.GatewaySnapshot) bool) (*shard.GatewaySnapshot, error) {
	deadline := time.Now().Add(gateBudget)
	for time.Now().Before(deadline) && ctx.Err() == nil {
		var s shard.GatewaySnapshot
		if getStatsz(f.gatewayURL(), &s) == nil && cond(&s) {
			return &s, nil
		}
		time.Sleep(2 * time.Millisecond)
	}
	return nil, fmt.Errorf("gateway never reported %s within %s", what, gateBudget)
}

// assertRounds enforces the client contract on every round: zero
// client-visible failures, zero inconsistent Decisions, and (want != "")
// digests byte-identical to the baseline.
func assertRounds(res *cellResult, want string) error {
	for i, rep := range res.rounds {
		round := fmt.Sprintf("round %d of %d", i+1, len(res.rounds))
		if rep.OK+rep.Canceled != rep.Requests {
			return fmt.Errorf("%s: %d of %d requests were client-visible failures (shed %d, timeout %d, failed %d, by status %v)",
				round, rep.Requests-rep.OK-rep.Canceled, rep.Requests, rep.Shed, rep.Timeouts, rep.Failed, rep.ByStatus)
		}
		if rep.Inconsistent > 0 {
			return fmt.Errorf("%s: %d corpus entries returned inconsistent Decisions", round, rep.Inconsistent)
		}
		if want != "" && strings.Join(rep.Decisions, "\n") != want {
			return fmt.Errorf("%s: decision digests diverged from the baseline", round)
		}
	}
	// The fleet must still tear down cleanly.
	if res.stopErr != nil {
		return fmt.Errorf("fleet stop: %w", res.stopErr)
	}
	return nil
}

// assertCell enforces the matrix contract on one fault cell: the client
// contract on every round, the evidence that the disruption overlapped
// the load, and the fault-specific evidence where the fault is
// deterministic from the cell's own actions.
func assertCell(res *cellResult, want, fault, phase string) error {
	if err := assertRounds(res, want); err != nil {
		return err
	}
	if res.inFlight < 1 {
		return fmt.Errorf("no request was outstanding when the disruption began")
	}
	if res.roundsAfterBack < 1 {
		return fmt.Errorf("no round started after the victim was back")
	}
	switch {
	case fault == "conn-reset" && res.gw.Failovers < 1:
		return fmt.Errorf("no failovers despite injected connection resets")
	case (fault == "sigkill" || fault == "torn-journal") && phase == "during-load" && res.gw.Failovers < 1:
		return fmt.Errorf("no failovers despite the victim killed under load")
	case fault == "torn-journal" && res.tornApplied && res.victimSalvaged < 1:
		return fmt.Errorf("journal torn but the victim reports no salvage")
	}
	return nil
}
