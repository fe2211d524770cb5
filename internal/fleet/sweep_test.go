package fleet

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"dvfsroofline/internal/core"
	"dvfsroofline/internal/counters"
	"dvfsroofline/internal/experiments"
	"dvfsroofline/internal/faults"
	"dvfsroofline/internal/tegra"
)

// breakerAfter is how a Sweep must leave a breaker that started
// half-open with its probe slot free.
type breakerAfter int

const (
	released breakerAfter = iota // slot freed, no verdict: still half-open, next Allow succeeds
	closed                       // Success: the probe reclosed the breaker
	reopened                     // Failure: the probe tripped it open again, once
	held                         // untouched: another prober still holds the slot
)

// TestNodeSweepProtocol drives Node.Sweep through every outcome, each
// from a half-open breaker with its probe slot free, and checks the
// outcome, the error, how the probe slot was settled, and whether the
// sweep is cached afterwards.
func TestNodeSweepProtocol(t *testing.T) {
	wl := tegra.Workload{Profile: counters.Profile{SP: 4e8, DRAMWords: 5e7}, Occupancy: 0.5}
	const grid = "calibration"
	seeded := []core.Candidate{{Time: 1, MeasuredEnergy: 2}}
	expired := func() (context.Context, context.CancelFunc) {
		return context.WithDeadline(context.Background(), time.Unix(0, 0))
	}
	cancelled := func() (context.Context, context.CancelFunc) {
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		return ctx, cancel
	}
	seed := func(t *testing.T, n *Node) {
		if _, _, err := n.Cache.Do(context.Background(), WorkloadKey(grid, wl), func() (any, error) { return seeded, nil }); err != nil {
			t.Fatal(err)
		}
	}
	// holdUntil starts another caller's flight for the key and returns
	// the function that completes it with err (seeded on success).
	holdUntil := func(t *testing.T, n *Node, err error) func() {
		started, gate, done := make(chan struct{}), make(chan struct{}), make(chan struct{})
		go func() {
			defer close(done)
			n.Cache.Do(context.Background(), WorkloadKey(grid, wl), func() (any, error) {
				close(started)
				<-gate
				if err != nil {
					return nil, err
				}
				return seeded, nil
			})
		}()
		<-started
		return func() { close(gate); <-done }
	}
	hold := func(t *testing.T, n *Node) func() { return holdUntil(t, n, nil) }

	cases := []struct {
		name string
		// setup prepares the node; a non-nil return completes a flight
		// Sweep is expected to join, once it has joined.
		setup     func(t *testing.T, n *Node) func()
		ctx       func() (context.Context, context.CancelFunc)
		want      SweepOutcome
		wantErr   error // nil: success; errAny: any non-ctx error
		wantPanic bool
		breaker   breakerAfter
		cached    bool
	}{
		{name: "hit", setup: func(t *testing.T, n *Node) func() { seed(t, n); return nil },
			want: SweepHit, breaker: released, cached: true},
		{name: "joined", setup: hold, want: SweepJoined, breaker: released, cached: true},
		// The joined flight ends with its owner's deadline, not this
		// caller's: Sweep goes round again and runs the sweep itself.
		{name: "joined, owner's deadline", setup: func(t *testing.T, n *Node) func() {
			return holdUntil(t, n, context.DeadlineExceeded)
		}, want: SweepFresh, breaker: closed, cached: true},
		{name: "fresh", want: SweepFresh, breaker: closed, cached: true},
		{name: "failure", setup: func(t *testing.T, n *Node) func() {
			n.Cfg.Faults = faults.Plan{Seed: 7, MeterDisconnect: 1}
			return nil
		}, want: SweepFresh, wantErr: errAny, breaker: reopened},
		{name: "panic", setup: func(t *testing.T, n *Node) func() {
			n.Cfg.Workers = 1
			n.Cfg.OnProgress = func(experiments.Progress) { panic("sweep blew up") }
			return nil
		}, wantPanic: true, breaker: released},
		{name: "own cancel", ctx: cancelled, want: SweepFresh, wantErr: context.Canceled, breaker: released},
		{name: "deadline", ctx: expired, want: SweepFresh, wantErr: context.DeadlineExceeded, breaker: reopened},
		{name: "waiter abandoned", setup: func(t *testing.T, n *Node) func() {
			finish := hold(t, n)
			t.Cleanup(finish)
			return nil
		}, ctx: cancelled, want: SweepJoined, wantErr: ErrWaiterAbandoned, breaker: released},
		{name: "breaker open, cached", setup: func(t *testing.T, n *Node) func() {
			seed(t, n)
			n.Breaker.Allow() // another prober takes the slot
			return nil
		}, want: SweepDegraded, breaker: held, cached: true},
		{name: "breaker open, not cached", setup: func(t *testing.T, n *Node) func() {
			n.Breaker.Allow()
			return nil
		}, want: SweepDegraded, wantErr: ErrBreakerOpen, breaker: held},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			n, opens := halfOpenNode(t)
			var finish func()
			if tc.setup != nil {
				finish = tc.setup(t, n)
			}
			ctx, cancel := context.Background(), context.CancelFunc(func() {})
			if tc.ctx != nil {
				ctx, cancel = tc.ctx()
			}
			defer cancel()
			joined := &doneSignal{Context: ctx, called: make(chan struct{})}

			type result struct {
				cands []core.Candidate
				out   SweepOutcome
				err   error
				rec   any
			}
			res := make(chan result, 1)
			go func() {
				var r result
				defer func() {
					r.rec = recover()
					res <- r
				}()
				r.cands, r.out, r.err = n.Sweep(joined, grid, wl)
			}()
			if finish != nil {
				<-joined.called
				finish()
			}
			r := <-res

			if (r.rec != nil) != tc.wantPanic {
				t.Fatalf("panic = %v, want panic %v", r.rec, tc.wantPanic)
			}
			if !tc.wantPanic {
				if r.out != tc.want {
					t.Errorf("outcome = %d, want %d", r.out, tc.want)
				}
				switch {
				case tc.wantErr == nil && r.err != nil:
					t.Errorf("err = %v, want success", r.err)
				case tc.wantErr == nil && len(r.cands) == 0:
					t.Error("success without candidates")
				case tc.wantErr == errAny && (r.err == nil || errors.Is(r.err, context.Canceled) || errors.Is(r.err, context.DeadlineExceeded)):
					t.Errorf("err = %v, want a sweep failure", r.err)
				case tc.wantErr != nil && tc.wantErr != errAny && !errors.Is(r.err, tc.wantErr):
					t.Errorf("err = %v, want %v", r.err, tc.wantErr)
				}
			}
			if _, ok := n.Cache.Get(WorkloadKey(grid, wl)); ok != tc.cached {
				t.Errorf("cached = %v, want %v", ok, tc.cached)
			}
			checkBreaker(t, n.Breaker, opens, tc.breaker)
		})
	}
}

// doneSignal is a context that reports the first call of its Done
// method. On Node.Sweep's path nothing calls Done before a cache waiter
// selects on it, so the signal means Sweep has joined a flight.
type doneSignal struct {
	context.Context
	once   sync.Once
	called chan struct{}
}

func (c *doneSignal) Done() <-chan struct{} {
	c.once.Do(func() { close(c.called) })
	return c.Context.Done()
}

// errAny marks a case expecting a sweep failure of any kind other than
// the caller's own context ending.
var errAny = errors.New("any sweep failure")

// halfOpenNode builds a node whose breaker is half-open with its probe
// slot free, and returns the breaker's open count at that point.
func halfOpenNode(t *testing.T) (*Node, uint64) {
	t.Helper()
	now := time.Unix(1700000000, 0)
	adm := Admin{FleetSeed: 42, Node: NodeOptions{
		BreakerThreshold: 1,
		BreakerCooldown:  time.Minute,
		Clock:            func() time.Time { return now },
	}}
	n, err := adm.BuildNode(Spec{ID: "tk1-a"})
	if err != nil {
		t.Fatal(err)
	}
	n.Breaker.Failure()
	now = now.Add(2 * time.Minute)
	if !n.Breaker.Allow() {
		t.Fatal("cooldown elapsed but no probe slot")
	}
	n.Breaker.Release()
	state, opens := n.Breaker.Snapshot()
	if state != BreakerHalfOpen {
		t.Fatalf("breaker %v, want half-open", state)
	}
	return n, opens
}

// checkBreaker asserts the probe slot was settled exactly as want says:
// a missing settle leaves the slot taken, a double Failure trips twice,
// and a Release in place of a verdict leaves the breaker half-open.
func checkBreaker(t *testing.T, b *Breaker, opens uint64, want breakerAfter) {
	t.Helper()
	state, got := b.Snapshot()
	switch want {
	case released, held:
		if state != BreakerHalfOpen || got != opens {
			t.Fatalf("breaker %v with %d opens, want half-open with %d", state, got, opens)
		}
		free := b.Allow()
		if free != (want == released) {
			t.Errorf("probe slot free = %v, want %v", free, want == released)
		}
		b.Release()
	case closed:
		if state != BreakerClosed || got != opens {
			t.Errorf("breaker %v with %d opens, want closed with %d", state, got, opens)
		}
	case reopened:
		if state != BreakerOpen || got != opens+1 {
			t.Errorf("breaker %v with %d opens, want open with %d", state, got, opens+1)
		}
	}
}

// TestWorkloadKeyBytes pins the routing key's bytes: a change remaps
// every workload to a different device.
func TestWorkloadKeyBytes(t *testing.T) {
	wl := tegra.Workload{
		Profile:   counters.Profile{SP: 1, DPFMA: 2.5e9, DPMul: 3, Int: 7e-3, SharedWords: 1e21, DRAMWords: 4.25},
		Occupancy: 0.25,
	}
	want := "g=full occ=0.25 sp=1 fma=2.5e+09 add=0 mul=3 int=0.007 sm=1e+21 l1=0 l2=0 dram=4.25"
	if got := WorkloadKey("full", wl); got != want {
		t.Errorf("WorkloadKey = %q, want %q", got, want)
	}
}
