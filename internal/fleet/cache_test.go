package fleet

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestCacheHitAfterMiss(t *testing.T) {
	c := NewCache(4)
	ctx := context.Background()
	v, hit, err := c.Do(ctx, "k", func() (any, error) { return 7, nil })
	if err != nil || hit || v != 7 {
		t.Fatalf("first Do = (%v, %v, %v), want (7, false, nil)", v, hit, err)
	}
	v, hit, err = c.Do(ctx, "k", func() (any, error) {
		t.Fatal("fn re-ran on a cached key")
		return nil, nil
	})
	if err != nil || !hit || v != 7 {
		t.Fatalf("second Do = (%v, %v, %v), want (7, true, nil)", v, hit, err)
	}
}

func TestCacheErrorsNotCached(t *testing.T) {
	c := NewCache(4)
	ctx := context.Background()
	boom := errors.New("boom")
	if _, _, err := c.Do(ctx, "k", func() (any, error) { return nil, boom }); !errors.Is(err, boom) {
		t.Fatalf("err = %v, want boom", err)
	}
	v, hit, err := c.Do(ctx, "k", func() (any, error) { return "ok", nil })
	if err != nil || hit || v != "ok" {
		t.Fatalf("retry after error = (%v, %v, %v), want fresh run", v, hit, err)
	}
}

func TestCacheSingleflightConcurrent(t *testing.T) {
	c := NewCache(4)
	var runs atomic.Int32
	gate := make(chan struct{})
	const n = 32
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			v, _, err := c.Do(context.Background(), "k", func() (any, error) {
				runs.Add(1)
				<-gate
				return 42, nil
			})
			if err != nil || v != 42 {
				t.Errorf("Do = (%v, %v)", v, err)
			}
		}()
	}
	// Let the goroutines pile onto the flight, then release the owner.
	time.Sleep(20 * time.Millisecond)
	close(gate)
	wg.Wait()
	if got := runs.Load(); got != 1 {
		t.Errorf("fn ran %d times, want 1", got)
	}
}

func TestCacheJoinerHonorsContext(t *testing.T) {
	c := NewCache(4)
	gate := make(chan struct{})
	defer close(gate)
	started := make(chan struct{})
	go c.Do(context.Background(), "k", func() (any, error) {
		close(started)
		<-gate
		return 1, nil
	})
	<-started
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	v, hit, err := c.Do(ctx, "k", nil)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled joiner err = %v, want context.Canceled", err)
	}
	if !errors.Is(err, ErrWaiterAbandoned) {
		t.Errorf("cancelled joiner err = %v, want ErrWaiterAbandoned wrap", err)
	}
	// The waiter was never served, so it must not report a cache hit:
	// counting it would inflate the hit metric with requests that got
	// nothing.
	if hit || v != nil {
		t.Errorf("cancelled joiner = (%v, hit=%v), want (nil, false)", v, hit)
	}
}

// TestCachePanicDoesNotPoisonKey is the regression test for the
// single-flight poisoning bug: a panicking fn used to leave its flight
// registered forever with done never closed, so every later Do for the
// key blocked indefinitely. Now the panic propagates to the owner,
// waiters fail with ErrFlightPanic, and the key stays usable.
func TestCachePanicDoesNotPoisonKey(t *testing.T) {
	c := NewCache(4)
	ctx := context.Background()

	// A waiter joined to the doomed flight must be failed, not hung.
	inFn := make(chan struct{})
	release := make(chan struct{})
	waiterDone := make(chan error, 1)
	ownerDone := make(chan any, 1)
	go func() {
		defer func() { ownerDone <- recover() }()
		c.Do(ctx, "k", func() (any, error) {
			close(inFn)
			<-release
			panic("sweep blew up")
		})
	}()
	<-inFn
	go func() {
		_, hit, err := c.Do(ctx, "k", nil)
		if hit {
			err = errors.New("panicked flight reported hit=true")
		}
		waiterDone <- err
	}()
	// Give the waiter a moment to join the flight, then detonate.
	time.Sleep(50 * time.Millisecond)
	close(release)

	if r := <-ownerDone; r != "sweep blew up" {
		t.Fatalf("owner recovered %v, want the original panic value", r)
	}
	select {
	case err := <-waiterDone:
		if !errors.Is(err, ErrFlightPanic) {
			t.Fatalf("waiter err = %v, want ErrFlightPanic", err)
		}
		if !errors.Is(err, ErrShared) {
			t.Errorf("waiter err = %v, want ErrShared wrap", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("waiter still blocked after the flight panicked: key is poisoned")
	}

	// The key must be retryable: a fresh Do runs fn and succeeds.
	done := make(chan struct{})
	go func() {
		defer close(done)
		v, hit, err := c.Do(ctx, "k", func() (any, error) { return "recovered", nil })
		if err != nil || hit || v != "recovered" {
			t.Errorf("Do after panic = (%v, %v, %v), want fresh run", v, hit, err)
		}
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Do after panic still blocked: flight was not unregistered")
	}
	if v, hit, err := c.Do(ctx, "k", nil); err != nil || !hit || v != "recovered" {
		t.Errorf("cached retry = (%v, %v, %v), want (recovered, true, nil)", v, hit, err)
	}
}

// TestCacheSharedFailureNotAHit pins the hit semantics for waiters of a
// failing flight: they got no value, so hit must be false and the
// owner's error arrives wrapped in ErrShared.
func TestCacheSharedFailureNotAHit(t *testing.T) {
	c := NewCache(4)
	ctx := context.Background()
	boom := errors.New("boom")
	inFn := make(chan struct{})
	release := make(chan struct{})
	go c.Do(ctx, "k", func() (any, error) {
		close(inFn)
		<-release
		return nil, boom
	})
	<-inFn
	waiter := make(chan struct{})
	var v any
	var hit bool
	var err error
	go func() {
		defer close(waiter)
		v, hit, err = c.Do(ctx, "k", nil)
	}()
	time.Sleep(50 * time.Millisecond)
	close(release)
	<-waiter
	if hit || v != nil {
		t.Errorf("failed-flight waiter = (%v, hit=%v), want (nil, false)", v, hit)
	}
	if !errors.Is(err, boom) || !errors.Is(err, ErrShared) {
		t.Errorf("failed-flight waiter err = %v, want boom wrapped in ErrShared", err)
	}
}

func TestCacheEvictsLRU(t *testing.T) {
	c := NewCache(2)
	ctx := context.Background()
	run := func(k string) (bool, error) {
		_, hit, err := c.Do(ctx, k, func() (any, error) { return k, nil })
		return hit, err
	}
	for _, k := range []string{"a", "b"} {
		if _, err := run(k); err != nil {
			t.Fatal(err)
		}
	}
	if hit, _ := run("a"); !hit { // refresh a: b is now least recently used
		t.Fatal("a evicted prematurely")
	}
	if _, err := run("c"); err != nil { // evicts b
		t.Fatal(err)
	}
	if c.Len() != 2 {
		t.Fatalf("len = %d, want 2", c.Len())
	}
	if hit, _ := run("a"); !hit {
		t.Error("a lost despite being recently used")
	}
	if hit, _ := run("b"); hit {
		t.Error("b survived eviction at capacity 2")
	}
}

func TestCacheCapacityClamped(t *testing.T) {
	c := NewCache(0)
	ctx := context.Background()
	for i := 0; i < 3; i++ {
		k := fmt.Sprintf("k%d", i)
		if _, _, err := c.Do(ctx, k, func() (any, error) { return i, nil }); err != nil {
			t.Fatal(err)
		}
	}
	if c.Len() != 1 {
		t.Fatalf("len = %d, want clamp to 1", c.Len())
	}
}

func TestCachePutServesDo(t *testing.T) {
	c := NewCache(4)
	c.Put("k", 99)
	if v, ok := c.Get("k"); !ok || v != 99 {
		t.Fatalf("Get after Put = (%v, %v), want (99, true)", v, ok)
	}
	v, hit, err := c.Do(context.Background(), "k", func() (any, error) {
		t.Fatal("fn ran despite a deposited value")
		return nil, nil
	})
	if err != nil || !hit || v != 99 {
		t.Fatalf("Do after Put = (%v, %v, %v), want (99, true, nil)", v, hit, err)
	}
	// Put participates in LRU accounting.
	c.Put("a", 1)
	c.Put("b", 2)
	c.Put("c", 3)
	c.Put("d", 4)
	if c.Len() != 4 {
		t.Fatalf("len = %d, want capacity 4", c.Len())
	}
	if _, ok := c.Get("k"); ok {
		t.Error("oldest entry survived Put-driven eviction")
	}
}

// BenchmarkCacheGet measures the degraded-mode read path — the lookup
// the serving layer spins on while a device's breaker is open. The
// bench gate holds its allocs/op at zero: a Get is a mutex, a map
// lookup and an LRU list move, and must stay that way.
func BenchmarkCacheGet(b *testing.B) {
	c := NewCache(64)
	ctx := context.Background()
	for i := 0; i < 64; i++ {
		if _, _, err := c.Do(ctx, fmt.Sprintf("sweep-%02d", i), func() (any, error) { return i, nil }); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := c.Get("sweep-17"); !ok {
			b.Fatal("lost the cached entry")
		}
	}
}
