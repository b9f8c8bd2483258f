package server_test

import (
	"context"
	"net/http"
	"testing"
	"time"

	"crat/internal/loadgen"
	"crat/internal/server"
)

// These tests drive a server with internal/loadgen's closed loop: caching,
// admission control, deadlines and client hang-ups under load. They are an
// external test package because loadgen imports server.

func TestRunLoadBasic(t *testing.T) {
	_, ts := server.NewTestServer(t, server.Config{Workers: 2})
	rep, err := loadgen.Run(context.Background(), ts.URL, loadgen.Options{
		Concurrency: 2,
		Requests:    8,
		Kernels:     2,
		Seed:        3,
		Block:       64,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.OK != 8 || rep.Failed != 0 {
		t.Fatalf("ok=%d failed=%d, want 8/0 (%+v)", rep.OK, rep.Failed, rep)
	}
	// 2 distinct kernels: at most 2 fresh compiles, the rest cache (or
	// singleflight-waiter) hits.
	if rep.Cached < 6 {
		t.Errorf("cached = %d, want >= 6", rep.Cached)
	}
	if rep.P50 <= 0 || rep.P99 < rep.P50 || rep.MaxOK < rep.P99 {
		t.Errorf("implausible percentiles: p50=%v p99=%v max=%v", rep.P50, rep.P99, rep.MaxOK)
	}
	if rep.RPS <= 0 {
		t.Errorf("rps = %v", rep.RPS)
	}
	if rep.ByStatus[http.StatusOK] != 8 {
		t.Errorf("by_status = %v", rep.ByStatus)
	}
}

// TestRunLoadOverload wedges the single worker slot so every admitted
// request runs out of its deadline and everything else is shed: the
// report must classify all outcomes as sheds or timeouts — no failures,
// no hangs, and admitted latency bounded by the deadline.
func TestRunLoadOverload(t *testing.T) {
	s, ts := server.NewTestServer(t, server.Config{Workers: 1, QueueCapacity: 1})
	defer s.HoldWorker()()

	rep, err := loadgen.Run(context.Background(), ts.URL, loadgen.Options{
		Concurrency: 4,
		Requests:    8,
		Kernels:     8,
		Block:       64,
		TimeoutMs:   250,
		Timeout:     5 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.OK != 0 || rep.Failed != 0 || rep.Canceled != 0 {
		t.Fatalf("ok=%d failed=%d canceled=%d, want all 0 (%+v)", rep.OK, rep.Failed, rep.Canceled, rep)
	}
	if rep.Shed == 0 || rep.Timeouts == 0 {
		t.Fatalf("shed=%d timeouts=%d, want both > 0", rep.Shed, rep.Timeouts)
	}
	if rep.Shed+rep.Timeouts != rep.Requests {
		t.Errorf("shed+timeouts = %d, want %d", rep.Shed+rep.Timeouts, rep.Requests)
	}
	if got := s.Stats().Shed.Load(); got == 0 {
		t.Error("server shed counter is zero")
	}
	if got := s.Stats().DeadlineExceeded.Load(); got == 0 {
		t.Error("server deadline_exceeded counter is zero")
	}
}

// TestRunLoadCancelInjection aborts every request client-side almost
// immediately; the daemon must notice the hang-ups (client_canceled) and
// the report must count the aborts rather than misfile them as failures.
func TestRunLoadCancelInjection(t *testing.T) {
	s, ts := server.NewTestServer(t, server.Config{Workers: 1})
	// Wedge the worker slot so every request is still parked (slot wait is
	// context-bounded) when its client aborts: the hang-up observation must
	// not depend on how long a compile takes.
	defer s.HoldWorker()()
	rep, err := loadgen.Run(context.Background(), ts.URL, loadgen.Options{
		Concurrency: 2,
		Requests:    6,
		Kernels:     6,
		Block:       64,
		CancelFrac:  1,
		CancelAfter: time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Canceled == 0 {
		t.Fatalf("no injected cancels registered: %+v", rep)
	}
	if rep.Failed != 0 {
		t.Errorf("failed = %d, want 0 (aborts must not count as failures)", rep.Failed)
	}
	if total := rep.OK + rep.Canceled + rep.Timeouts + rep.Shed; total != rep.Requests {
		t.Errorf("outcomes sum to %d, want %d (%+v)", total, rep.Requests, rep)
	}
	// The daemon observes at least one of the hang-ups (the compile in
	// flight when the client vanished); its handler finishes asynchronously.
	server.WaitFor(t, func() bool { return s.Stats().ClientCanceled.Load() > 0 })
}
