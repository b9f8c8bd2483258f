package pool

import (
	"context"
	"errors"
	"sync"
)

// Memo is a keyed singleflight memo. The first caller of Do for a key (the
// leader) runs fn outside every lock, so different keys compute in
// parallel; concurrent callers for the same key block on that computation
// instead of duplicating it; later callers get the memoized result.
//
// Plain errors memoize too — every user's computations are deterministic,
// so retrying cannot help — with one exception: a result for which
// IsCancellation holds is never memoized. Its waiters re-check the entry
// and the first with a live context becomes the new leader, so a canceled
// computation never poisons the key for later (resumed) callers. A leader
// whose fn panics is treated the same way: nothing is memoized, its
// waiters elect a new leader, and the panic propagates to its own caller.
//
// A memo never evicts on its own. Keys whose subject can die (a kernel
// collected by the GC) are removed with Forget, typically from a
// runtime.AddCleanup registered on that subject.
type Memo[K comparable, V any] struct {
	mu      sync.Mutex // guards entries and every entry's fields
	entries map[K]*memoEntry[V]
}

type memoEntry[V any] struct {
	done chan struct{} // non-nil while a leader is computing
	has  bool          // val and err hold a memoized result
	val  V
	err  error
}

// NewMemo returns an empty memo.
func NewMemo[K comparable, V any]() *Memo[K, V] {
	return &Memo[K, V]{entries: make(map[K]*memoEntry[V])}
}

// IsCancellation reports whether err (anywhere in its chain, so structured
// faults wrapping a context error count) stems from context cancellation
// or an expired deadline.
func IsCancellation(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}

// Do returns key's value, computing it with fn when nothing is memoized.
// memoized reports whether the call was served without running fn: true
// for a later hit and for a waiter that received its leader's result,
// false for the call that ran fn. A memoized result is returned whatever
// the state of ctx; a waiter gives up with ctx's error once ctx is done,
// without disturbing the in-flight computation.
func (m *Memo[K, V]) Do(ctx context.Context, key K, fn func() (V, error)) (v V, memoized bool, err error) {
	m.mu.Lock()
	e := m.entries[key]
	if e == nil {
		e = &memoEntry[V]{}
		m.entries[key] = e
	}
	for !e.has {
		if e.done == nil {
			v, err = m.lead(e, fn)
			return v, false, err
		}
		ch := e.done
		m.mu.Unlock()
		select {
		case <-ch:
			// The leader finished: loop to read its result or, if it was
			// canceled, to become the new leader — unless ctx died too.
		case <-ctx.Done():
		}
		if err := ctx.Err(); err != nil {
			var zero V
			return zero, false, err
		}
		m.mu.Lock()
	}
	v, err = e.val, e.err
	m.mu.Unlock()
	return v, true, err
}

// lead runs fn as e's leader. It is called with m.mu held and returns with
// it released.
func (m *Memo[K, V]) lead(e *memoEntry[V], fn func() (V, error)) (v V, err error) {
	ch := make(chan struct{})
	e.done = ch
	m.mu.Unlock()
	returned := false
	defer func() {
		m.mu.Lock()
		e.done = nil
		if returned && !IsCancellation(err) {
			e.has, e.val, e.err = true, v, err
		}
		m.mu.Unlock()
		close(ch)
	}()
	v, err = fn()
	returned = true
	return v, err
}

// Forget drops key's entry, memoized or in flight. Callers already waiting
// on an in-flight computation still receive its result; the next Do for
// key computes afresh.
func (m *Memo[K, V]) Forget(key K) {
	m.mu.Lock()
	delete(m.entries, key)
	m.mu.Unlock()
}

// Len returns the number of keys held, memoized or in flight.
func (m *Memo[K, V]) Len() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.entries)
}
