// Package pool holds the two concurrency primitives the rest of the tree
// shares. Run is a minimal bounded worker pool for fanning out
// index-addressed work (the experiment harness, the core optimizer):
// callers write results into pre-sized slices at their job index, so output
// order never depends on scheduling. Memo is a keyed singleflight memo (the
// harness Session caches, cratd's memory tier, the per-kernel analysis
// registries in passes and gpusim): each key is computed once, concurrent
// callers share the computation, and cancellation never poisons a key.
package pool

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
)

// DefaultWorkers is the worker count used when a caller passes 0: one worker
// per available CPU.
func DefaultWorkers() int {
	return runtime.GOMAXPROCS(0)
}

// PanicError is the value Run re-panics with when workers panic: it keeps
// the first recovered value, attributes it to a job index, and counts how
// many workers panicked in total (later panics are usually consequences of
// the first, but a count > 1 tells the debugger the blast radius).
type PanicError struct {
	// Job is the job index whose fn raised the first panic.
	Job int
	// Value is the first recovered panic value.
	Value any
	// NumPanicked counts workers that panicked before the pool drained.
	NumPanicked int
}

func (e *PanicError) Error() string {
	if e.NumPanicked > 1 {
		return fmt.Sprintf("pool: job %d panicked: %v (%d workers panicked in total)",
			e.Job, e.Value, e.NumPanicked)
	}
	return fmt.Sprintf("pool: job %d panicked: %v", e.Job, e.Value)
}

// Unwrap exposes an underlying error panic value to errors.Is/As.
func (e *PanicError) Unwrap() error {
	if err, ok := e.Value.(error); ok {
		return err
	}
	return nil
}

// Run invokes fn(i) for every i in [0, n), using at most `workers`
// goroutines. workers <= 0 means DefaultWorkers(). With one worker (or one
// job) it degenerates to a plain loop on the calling goroutine, so serial
// behaviour — including raw panic propagation — is exactly the pre-pool code
// path.
//
// Jobs are handed out by an atomic counter, so early-finishing workers steal
// remaining indices rather than idling. Run returns only after every started
// job has finished. If any fn panics, Run re-panics with a *PanicError
// wrapping the first captured value (job index and panicking-worker count
// included) after all workers have stopped; the remaining jobs may or may
// not have run. fn must therefore confine its effects to its own index (or
// synchronize internally).
func Run(workers, n int, fn func(i int)) {
	_ = RunCtx(context.Background(), workers, n, fn)
}

// RunCtx is Run with cooperative cancellation: once ctx is done, no new job
// indices are handed out and RunCtx returns the context's error after every
// in-flight job has finished (fn itself is responsible for observing ctx if
// individual jobs are long-running). A nil return means every index ran.
// Panic handling matches Run.
func RunCtx(ctx context.Context, workers, n int, fn func(i int)) error {
	if workers <= 0 {
		workers = DefaultWorkers()
	}
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			if err := ctx.Err(); err != nil {
				return err
			}
			fn(i)
		}
		return nil
	}

	var (
		next    atomic.Int64
		wg      sync.WaitGroup
		panicMu sync.Mutex
		first   *PanicError
	)
	done := ctx.Done()
	worker := func() {
		defer wg.Done()
		for {
			i := int(next.Add(1)) - 1
			if i >= n {
				return
			}
			// Cancellation fast path at dequeue: the check runs after the
			// index is claimed, so a cancel that lands while a worker sits
			// between jobs (or while it was blocked inside the previous
			// job) stops the queue before the claimed job starts. Claimed-
			// but-unstarted indices are simply abandoned — RunCtx reports
			// ctx.Err(), so callers know the run was partial.
			if done != nil {
				select {
				case <-done:
					return
				default:
				}
			}
			func() {
				defer func() {
					if r := recover(); r != nil {
						panicMu.Lock()
						if first == nil {
							first = &PanicError{Job: i, Value: r, NumPanicked: 1}
						} else {
							first.NumPanicked++
						}
						panicMu.Unlock()
					}
				}()
				fn(i)
			}()
		}
	}
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go worker()
	}
	wg.Wait()
	if first != nil {
		panic(first)
	}
	return ctx.Err()
}
