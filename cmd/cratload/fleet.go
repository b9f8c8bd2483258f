package main

import (
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"time"
)

// fleetConfig describes a multi-replica cratd deployment plus the cratgw
// gateway fronting it, spawned and supervised for one chaos-matrix cell:
// SIGKILL or drain a replica mid-load, restart it on the same address
// with the same (warm) cache journal, and prove clients never noticed.
type fleetConfig struct {
	// dir holds per-replica cache dirs, addr files, and logs.
	dir string
	// cratdBin / gatewayBin are the binaries to exec.
	cratdBin   string
	gatewayBin string
	// replicas is the cratd process count (>= 1).
	replicas int
	// replicaFaults are per-replica -fault specs (index-matched; missing
	// or empty entries leave that replica fault-free). A restarted replica
	// re-arms its spec — the scenario's counters reset with the process.
	replicaFaults []string
	// gatewayFault is the cratgw -fault spec ("" = none).
	gatewayFault string
}

type fleetProc struct {
	cmd    *exec.Cmd
	addr   string // bound host:port
	args   []string
	log    *os.File
	exited bool // killed (and Waited) without a restart since
}

// fleet is a running deployment. Always call stop.
type fleet struct {
	cfg      fleetConfig
	replicas []*fleetProc
	gateway  *fleetProc
}

// startFleet launches cfg.replicas cratd processes on ephemeral ports
// (each with its own cache journal) and a cratgw fronting them, waiting
// until every process has written its addr file.
func startFleet(cfg fleetConfig) (*fleet, error) {
	if cfg.replicas < 1 {
		return nil, fmt.Errorf("fleet needs at least 1 replica")
	}
	if err := os.MkdirAll(cfg.dir, 0o755); err != nil {
		return nil, err
	}
	f := &fleet{cfg: cfg}
	for i := 0; i < cfg.replicas; i++ {
		// The oracle is covered elsewhere; the matrix wants throughput.
		args := []string{
			"-addr", "127.0.0.1:0",
			"-addr-file", filepath.Join(cfg.dir, fmt.Sprintf("addr-%d", i)),
			"-cache", filepath.Join(cfg.dir, fmt.Sprintf("cache-%d", i)),
			"-drain-grace", "300ms",
			"-verify=false",
		}
		if i < len(cfg.replicaFaults) && cfg.replicaFaults[i] != "" {
			args = append(args, "-fault", cfg.replicaFaults[i])
		}
		p, err := f.spawn(cfg.cratdBin, args, filepath.Join(cfg.dir, fmt.Sprintf("cratd-%d.log", i)),
			filepath.Join(cfg.dir, fmt.Sprintf("addr-%d", i)))
		if err != nil {
			f.stop()
			return nil, fmt.Errorf("replica %d: %w", i, err)
		}
		f.replicas = append(f.replicas, p)
	}
	urls := make([]string, len(f.replicas))
	for i, p := range f.replicas {
		urls[i] = "http://" + p.addr
	}
	gwArgs := []string{
		"-addr", "127.0.0.1:0",
		"-addr-file", filepath.Join(cfg.dir, "gw-addr"),
		"-replicas", strings.Join(urls, ","),
	}
	if cfg.gatewayFault != "" {
		gwArgs = append(gwArgs, "-fault", cfg.gatewayFault)
	}
	p, err := f.spawn(cfg.gatewayBin, gwArgs, filepath.Join(cfg.dir, "cratgw.log"),
		filepath.Join(cfg.dir, "gw-addr"))
	if err != nil {
		f.stop()
		return nil, fmt.Errorf("gateway: %w", err)
	}
	f.gateway = p
	return f, nil
}

// spawn execs bin with args, streaming output to logPath, and waits for
// addrFile to appear (the daemons write it once listening).
func (f *fleet) spawn(bin string, args []string, logPath, addrFile string) (*fleetProc, error) {
	os.Remove(addrFile)
	logf, err := os.OpenFile(logPath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(bin, args...)
	cmd.Stdout = logf
	cmd.Stderr = logf
	if err := cmd.Start(); err != nil {
		logf.Close()
		return nil, err
	}
	addr, err := waitAddrFile(addrFile, 10*time.Second)
	if err != nil {
		cmd.Process.Kill()
		cmd.Wait()
		logf.Close()
		return nil, fmt.Errorf("%s did not come up: %w (log: %s)", bin, err, logPath)
	}
	return &fleetProc{cmd: cmd, addr: addr, args: args, log: logf}, nil
}

func waitAddrFile(path string, budget time.Duration) (string, error) {
	deadline := time.Now().Add(budget)
	for time.Now().Before(deadline) {
		if data, err := os.ReadFile(path); err == nil && len(data) > 0 {
			return strings.TrimSpace(string(data)), nil
		}
		time.Sleep(20 * time.Millisecond)
	}
	return "", fmt.Errorf("no addr file %s within %s", path, budget)
}

// gatewayURL is the load target.
func (f *fleet) gatewayURL() string { return "http://" + f.gateway.addr }

// replicaURL returns replica i's base URL.
func (f *fleet) replicaURL(i int) string { return "http://" + f.replicas[i].addr }

// killReplica SIGKILLs replica i — no drain, no flush, the crash the
// gateway must absorb.
func (f *fleet) killReplica(i int) error {
	p := f.replicas[i]
	if err := p.cmd.Process.Kill(); err != nil {
		return err
	}
	p.cmd.Wait()
	p.exited = true
	return nil
}

// termReplica SIGTERMs replica i and waits for it to drain and exit —
// the graceful shutdown path, under whatever load and faults are active.
// The chaos matrix uses it to crash-test the drain-time journal flush.
func (f *fleet) termReplica(i int) error {
	p := f.replicas[i]
	if err := p.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		return err
	}
	done := make(chan error, 1)
	go func() { done <- p.cmd.Wait() }()
	select {
	case err := <-done:
		p.exited = true
		return err // non-nil = the drain failed (exit 1); callers decide
	case <-time.After(20 * time.Second):
		p.cmd.Process.Kill()
		<-done
		p.exited = true
		return fmt.Errorf("replica %d did not drain within 20s", i)
	}
}

// truncateJournalTail chops n bytes off replica i's journal — the torn
// final record a power cut leaves. Only meaningful while the replica is
// down (kill first, truncate, restart).
func (f *fleet) truncateJournalTail(i int, n int64) error {
	path := filepath.Join(f.cfg.dir, fmt.Sprintf("cache-%d", i), "journal.log")
	st, err := os.Stat(path)
	if err != nil {
		return err
	}
	if st.Size() <= n {
		return fmt.Errorf("journal %s has only %d bytes; cannot tear %d", path, st.Size(), n)
	}
	return os.Truncate(path, st.Size()-n)
}

// restartReplica re-execs a killed replica on its ORIGINAL address (the
// port is free again) with its original cache directory: the ring
// re-admits it unchanged and its journal serves its shard warm.
func (f *fleet) restartReplica(i int) error {
	p := f.replicas[i]
	args := make([]string, len(p.args))
	copy(args, p.args)
	for j := 0; j+1 < len(args); j++ {
		if args[j] == "-addr" {
			args[j+1] = p.addr
		}
	}
	addrFile := ""
	for j := 0; j+1 < len(args); j++ {
		if args[j] == "-addr-file" {
			addrFile = args[j+1]
		}
	}
	// The port was held by the killed process; rebinding can race its
	// teardown briefly, so retry within a small budget.
	var lastErr error
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		cmd := exec.Command(f.cfg.cratdBin, args...)
		cmd.Stdout = p.log
		cmd.Stderr = p.log
		os.Remove(addrFile)
		if err := cmd.Start(); err != nil {
			return err
		}
		addr, err := waitAddrFile(addrFile, 3*time.Second)
		if err == nil && addr == p.addr {
			p.cmd = cmd
			p.exited = false
			return nil
		}
		lastErr = err
		if err == nil {
			lastErr = fmt.Errorf("restarted replica bound %s, want %s", addr, p.addr)
		}
		cmd.Process.Kill()
		cmd.Wait()
		time.Sleep(100 * time.Millisecond)
	}
	return fmt.Errorf("restarting replica %d: %w", i, lastErr)
}

// stop SIGTERMs the gateway then every replica and waits for clean
// exits, returning the first failure (a replica that did not drain
// cleanly exits nonzero, failing the cell).
func (f *fleet) stop() error {
	var firstErr error
	stop := func(name string, p *fleetProc) {
		if p == nil || p.cmd == nil || p.cmd.Process == nil || p.exited {
			return
		}
		p.cmd.Process.Signal(syscall.SIGTERM)
		done := make(chan error, 1)
		go func() { done <- p.cmd.Wait() }()
		select {
		case err := <-done:
			if err != nil && firstErr == nil && !strings.Contains(err.Error(), "killed") {
				firstErr = fmt.Errorf("%s: %w", name, err)
			}
		case <-time.After(20 * time.Second):
			p.cmd.Process.Kill()
			<-done
			if firstErr == nil {
				firstErr = fmt.Errorf("%s did not drain within 20s", name)
			}
		}
		if p.log != nil {
			p.log.Close()
			p.log = nil
		}
	}
	stop("cratgw", f.gateway)
	for i, p := range f.replicas {
		stop(fmt.Sprintf("cratd-%d", i), p)
	}
	return firstErr
}
