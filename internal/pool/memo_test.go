package pool

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
)

// parkedCtx closes parked the first time Do consults its Done channel,
// which Do does only once the caller holds an in-flight entry and is about
// to block on it — so a test can wait until a waiter is really waiting.
type parkedCtx struct {
	context.Context
	once   sync.Once
	parked chan struct{}
}

func newParkedCtx() *parkedCtx {
	return &parkedCtx{Context: context.Background(), parked: make(chan struct{})}
}

func (c *parkedCtx) Done() <-chan struct{} {
	c.once.Do(func() { close(c.parked) })
	return c.Context.Done()
}

// startLeader runs Do(key) on a goroutine whose fn blocks until release is
// closed and then returns val. It returns once fn is running; wait reports
// the leader's result.
func startLeader[V any](m *Memo[string, V], key string, val V, release <-chan struct{}) (wait func() (V, bool, error)) {
	in := make(chan struct{})
	var (
		v        V
		memoized bool
		err      error
		wg       sync.WaitGroup
	)
	wg.Add(1)
	go func() {
		defer wg.Done()
		v, memoized, err = m.Do(context.Background(), key, func() (V, error) {
			close(in)
			<-release
			return val, nil
		})
	}()
	<-in
	return func() (V, bool, error) { wg.Wait(); return v, memoized, err }
}

// TestMemoMemoizesPlainError: deterministic failures must be cached — the
// experiments cannot heal by retrying, so every later caller sees the same
// error without recomputing.
func TestMemoMemoizesPlainError(t *testing.T) {
	m := NewMemo[string, int]()
	var runs atomic.Int32
	boom := errors.New("boom")
	fn := func() (int, error) { runs.Add(1); return 0, boom }
	if _, _, err := m.Do(context.Background(), "k", fn); !errors.Is(err, boom) {
		t.Fatalf("first Do: %v", err)
	}
	if _, _, err := m.Do(context.Background(), "k", fn); !errors.Is(err, boom) {
		t.Fatalf("second Do: %v", err)
	}
	if n := runs.Load(); n != 1 {
		t.Errorf("fn ran %d times, want 1 (plain errors memoize)", n)
	}
}

// TestMemoRetriesAfterCancellation: a computation that died because its
// context was canceled must NOT poison the key — the next caller with a
// live context recomputes and memoizes the real value.
func TestMemoRetriesAfterCancellation(t *testing.T) {
	m := NewMemo[string, int]()
	var runs atomic.Int32
	canceled, cancel := context.WithCancel(context.Background())
	cancel()
	_, _, err := m.Do(canceled, "k", func() (int, error) {
		runs.Add(1)
		return 0, canceled.Err()
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled leader: %v", err)
	}
	v, _, err := m.Do(context.Background(), "k", func() (int, error) {
		runs.Add(1)
		return 42, nil
	})
	if err != nil || v != 42 {
		t.Fatalf("retry after cancellation: %v, %v; want 42", v, err)
	}
	if n := runs.Load(); n != 2 {
		t.Errorf("fn ran %d times, want 2 (cancellation then retry)", n)
	}
}

// TestMemoWaitersSurviveCanceledLeader: waiters blocked on a leader whose
// context dies must elect a new leader rather than inheriting the
// cancellation error. Run with -race: this is the poisoning regression.
func TestMemoWaitersSurviveCanceledLeader(t *testing.T) {
	m := NewMemo[string, int]()
	leaderCtx, cancelLeader := context.WithCancel(context.Background())
	leaderIn := make(chan struct{}) // leader signals it is inside fn
	leaderGo := make(chan struct{}) // test releases the leader
	var leaderErr error
	var wgLeader sync.WaitGroup
	wgLeader.Add(1)
	go func() {
		defer wgLeader.Done()
		_, _, leaderErr = m.Do(leaderCtx, "k", func() (int, error) {
			close(leaderIn)
			<-leaderGo
			return 0, leaderCtx.Err()
		})
	}()
	<-leaderIn

	// Pile waiters onto the in-flight entry, then kill the leader.
	const waiters = 8
	vals := make([]int, waiters)
	errs := make([]error, waiters)
	var reruns atomic.Int32
	var wg sync.WaitGroup
	for i := 0; i < waiters; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			vals[i], _, errs[i] = m.Do(context.Background(), "k", func() (int, error) {
				reruns.Add(1)
				return 7, nil
			})
		}(i)
	}
	cancelLeader()
	close(leaderGo)
	wgLeader.Wait()
	wg.Wait()

	if !errors.Is(leaderErr, context.Canceled) {
		t.Errorf("leader error = %v, want context.Canceled", leaderErr)
	}
	for i := 0; i < waiters; i++ {
		if errs[i] != nil || vals[i] != 7 {
			t.Errorf("waiter %d: %v, %v; want 7", i, vals[i], errs[i])
		}
	}
	if n := reruns.Load(); n != 1 {
		t.Errorf("waiters recomputed %d times, want exactly 1 new leader", n)
	}
}

// TestMemoMemoizedFlag pins the memory-hit signal cratd counts: only the
// call that ran fn reports memoized=false; a waiter that received the
// leader's result and a later hit were both served without computing.
func TestMemoMemoizedFlag(t *testing.T) {
	m := NewMemo[string, int]()
	release := make(chan struct{})
	leader := startLeader(m, "k", 5, release)

	wctx := newParkedCtx()
	type result struct {
		v        int
		memoized bool
		err      error
	}
	waiter := make(chan result)
	go func() {
		v, memoized, err := m.Do(wctx, "k", func() (int, error) {
			t.Error("waiter ran fn while the leader was in flight")
			return 0, nil
		})
		waiter <- result{v, memoized, err}
	}()
	<-wctx.parked
	close(release)

	if v, memoized, err := leader(); v != 5 || memoized || err != nil {
		t.Errorf("leader = (%d, memoized=%t, %v), want (5, false, nil)", v, memoized, err)
	}
	if r := <-waiter; r.v != 5 || !r.memoized || r.err != nil {
		t.Errorf("waiter = (%d, memoized=%t, %v), want (5, true, nil)", r.v, r.memoized, r.err)
	}
	v, memoized, err := m.Do(context.Background(), "k", func() (int, error) {
		t.Error("later hit ran fn")
		return 0, nil
	})
	if v != 5 || !memoized || err != nil {
		t.Errorf("later hit = (%d, memoized=%t, %v), want (5, true, nil)", v, memoized, err)
	}
}

// TestMemoForget: Forget drops one key — memoized or in flight — and
// nothing else. A caller parked on the forgotten in-flight entry still gets
// its leader's value, and the key computes afresh on its next lookup.
func TestMemoForget(t *testing.T) {
	m := NewMemo[string, int]()
	constant := func(v int) func() (int, error) { return func() (int, error) { return v, nil } }
	m.Do(context.Background(), "b", constant(2))
	m.Forget("absent")
	if n := m.Len(); n != 1 {
		t.Fatalf("Len = %d after forgetting an absent key, want 1", n)
	}

	release := make(chan struct{})
	leader := startLeader(m, "a", 1, release)
	wctx := newParkedCtx()
	waiter := make(chan int)
	go func() {
		v, _, err := m.Do(wctx, "a", func() (int, error) { return -1, nil })
		if err != nil {
			t.Errorf("parked waiter: %v", err)
		}
		waiter <- v
	}()
	<-wctx.parked

	m.Forget("a")
	if n := m.Len(); n != 1 {
		t.Fatalf("Len = %d after forgetting the in-flight key, want 1", n)
	}
	close(release)
	if v, memoized, _ := leader(); v != 1 || memoized {
		t.Errorf("forgotten leader = (%d, memoized=%t), want (1, false)", v, memoized)
	}
	if v := <-waiter; v != 1 {
		t.Errorf("waiter parked on the forgotten entry got %d, want the leader's 1", v)
	}
	if v, memoized, _ := m.Do(context.Background(), "a", constant(10)); v != 10 || memoized {
		t.Errorf("forgotten key = (%d, memoized=%t), want a fresh compute (10, false)", v, memoized)
	}

	m.Forget("b")
	if v, memoized, _ := m.Do(context.Background(), "b", constant(20)); v != 20 || memoized {
		t.Errorf("forgotten memoized key = (%d, memoized=%t), want a fresh compute (20, false)", v, memoized)
	}
	if v, memoized, _ := m.Do(context.Background(), "a", constant(30)); v != 10 || !memoized {
		t.Errorf("untouched key = (%d, memoized=%t), want the memoized (10, true)", v, memoized)
	}
}

// TestMemoLeaderPanicReleasesWaiters: a panicking leader memoizes nothing
// and must not strand its waiters — one of them becomes the new leader.
func TestMemoLeaderPanicReleasesWaiters(t *testing.T) {
	m := NewMemo[string, int]()
	in := make(chan struct{})
	release := make(chan struct{})
	recovered := make(chan any)
	go func() {
		defer func() { recovered <- recover() }()
		m.Do(context.Background(), "k", func() (int, error) {
			close(in)
			<-release
			panic("leader exploded")
		})
	}()
	<-in

	wctx := newParkedCtx()
	waiter := make(chan int)
	go func() {
		v, _, _ := m.Do(wctx, "k", func() (int, error) { return 7, nil })
		waiter <- v
	}()
	<-wctx.parked
	close(release)

	if r := <-recovered; r != "leader exploded" {
		t.Errorf("leader's caller recovered %v, want the panic value", r)
	}
	if v := <-waiter; v != 7 {
		t.Errorf("waiter got %d, want 7 from the re-elected leader", v)
	}
}
