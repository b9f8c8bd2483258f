// Command cratd is the CRAT compilation-as-a-service daemon: a
// long-running HTTP server that accepts PTX from many concurrent clients,
// runs coordinated register allocation + TLP selection, and returns the
// optimized module plus its Decision.
//
// Usage:
//
//	cratd [-addr 127.0.0.1:8177] [-cache DIR] [-queue N] [-workers N]
//	      [-deadline 30s] [-max-deadline 2m] [-drain 15s] [-drain-grace 0]
//	      [-verify] [-backends a,b] [-fault SPEC] [-addr-file PATH] [-version]
//
// Endpoints:
//
//	POST /v1/compile  PTX + config → optimized kernel + Decision JSON
//	GET  /healthz     liveness (always 200 while the process runs)
//	GET  /readyz      admission state (503 while draining)
//	GET  /statsz      counters: sheds, cache tiers, computes, panics, ...
//
// Robustness behavior — bounded admission queue with 429 load shedding,
// per-request deadlines, content-addressed caching with a crash-safe
// persistent tier, per-request oracle degradation, panic isolation, and
// graceful drain on SIGTERM/SIGINT — is documented in DESIGN.md §13.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"crat/internal/backend"
	"crat/internal/buildinfo"
	"crat/internal/faultinject"
	"crat/internal/pool"
	"crat/internal/server"
)

func main() {
	addr := flag.String("addr", "127.0.0.1:8177", "listen address (use :0 for an ephemeral port)")
	addrFile := flag.String("addr-file", "", "write the bound address to this file once listening (for scripts using -addr :0)")
	cacheDir := flag.String("cache", "", "persistent result-cache directory (crash-safe journal; restarts serve it warm)")
	queue := flag.Int("queue", 0, "admission queue capacity; beyond it requests are shed with 429 (0 = 4x workers)")
	workers := flag.Int("workers", pool.DefaultWorkers(), "max concurrent compilations")
	deadline := flag.Duration("deadline", 30*time.Second, "default per-request deadline when the request sets none")
	maxDeadline := flag.Duration("max-deadline", 2*time.Minute, "upper bound on any request's deadline")
	drain := flag.Duration("drain", 15*time.Second, "graceful-drain budget on SIGTERM before giving up on in-flight requests")
	drainGrace := flag.Duration("drain-grace", 0, "hold the listener open (readyz already 503) for this long at drain start, so a gateway health check observes not-ready before connections are refused")
	verify := flag.Bool("verify", true, "run the differential oracle on every compile by default (requests may override)")
	backends := flag.String("backends", "", "comma-separated default optimization backends for requests that name none (registered: "+strings.Join(backend.Names(), ",")+"); empty = CRAT")
	fault := flag.String("fault", "", "deterministic fault-injection spec for the cache filesystem, e.g. 'fsync-fail:nth=5;enospc:after=6,count=3' (chaos testing; see internal/faultinject)")
	version := flag.Bool("version", false, "print build information and exit")
	flag.Parse()

	if *version {
		buildinfo.Print("cratd")
		return
	}

	logger := log.New(os.Stderr, "cratd: ", log.LstdFlags|log.Lmsgprefix)
	var faultFS faultinject.FS
	if *fault != "" {
		sc, err := faultinject.Parse(*fault)
		if err != nil {
			logger.Fatalf("-fault: %v", err)
		}
		faultFS = faultinject.NewFS(faultinject.OS(), sc)
		logger.Printf("fault injection armed: %s", sc)
	}
	srv, err := server.New(server.Config{
		Workers:         *workers,
		QueueCapacity:   *queue,
		DefaultDeadline: *deadline,
		MaxDeadline:     *maxDeadline,
		CacheDir:        *cacheDir,
		VerifyDefault:   *verify,
		DefaultBackends: backend.SplitNames(*backends),
		DrainGrace:      *drainGrace,
		FS:              faultFS,
		Log:             logger,
	})
	if err != nil {
		logger.Fatalf("startup: %v", err)
	}

	l, err := net.Listen("tcp", *addr)
	if err != nil {
		logger.Fatalf("listen %s: %v", *addr, err)
	}
	bound := l.Addr().String()
	if *addrFile != "" {
		if err := os.WriteFile(*addrFile, []byte(bound), 0o644); err != nil {
			logger.Fatalf("writing -addr-file: %v", err)
		}
	}
	fmt.Printf("cratd: listening on http://%s (%s)\n", bound, buildinfo.String())
	logger.Printf("listening on %s", bound)

	// SIGTERM/SIGINT → graceful drain: stop admitting, finish in-flight
	// work within the drain budget, flush the journal, exit 0.
	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, syscall.SIGTERM, os.Interrupt)

	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(l) }()

	select {
	case sig := <-sigs:
		logger.Printf("received %v: draining (budget %s)", sig, *drain)
		ctx, cancel := context.WithTimeout(context.Background(), *drain)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			logger.Printf("drain incomplete: %v", err)
			os.Exit(1)
		}
		logger.Printf("drained cleanly; journal flushed")
	case err := <-serveErr:
		if err != nil {
			logger.Fatalf("serve: %v", err)
		}
	}
}
