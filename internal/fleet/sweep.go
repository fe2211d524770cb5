package fleet

import (
	"context"
	"errors"
	"fmt"
	"sync"

	"dvfsroofline/internal/core"
	"dvfsroofline/internal/experiments"
	"dvfsroofline/internal/tegra"
)

// SweepOutcome says how Node.Sweep answered, with or without an error.
type SweepOutcome int

const (
	SweepFresh    SweepOutcome = iota // this caller ran the sweep itself
	SweepHit                          // served from the device's LRU
	SweepJoined                       // waited on another caller's flight
	SweepDegraded                     // breaker refused: stale LRU entry or ErrBreakerOpen
)

// ErrBreakerOpen is Node.Sweep's answer when the device's breaker
// refuses fresh work and no cached sweep exists for the workload.
var ErrBreakerOpen = errors.New("sweep breaker open and no cached sweep")

// Sweep measures wl over the node's named grid (a key of n.Grids): the
// one serving sweep protocol behind /v1/autotune and /v1/fleet/place.
// The breaker is asked first; if it refuses, the cached sweep is served
// as SweepDegraded, or ErrBreakerOpen returned. Otherwise the sweep runs
// through the single-flight cache, and the probe slot is settled exactly
// once: Release when this caller ran nothing (hit, joined) or its own
// ctx was cancelled, Success when its fresh sweep completed, Failure
// when that sweep failed or hit its deadline, Release and re-panic when
// it panicked. A joined flight cut short by its owner's ctx is retried
// while ctx lives. The cache never keeps a failed flight.
func (n *Node) Sweep(ctx context.Context, grid string, wl tegra.Workload) ([]core.Candidate, SweepOutcome, error) {
	key := WorkloadKey(grid, wl)
	if !n.Breaker.Allow() {
		if val, ok := n.Cache.Get(key); ok {
			return val.([]core.Candidate), SweepDegraded, nil
		}
		return nil, SweepDegraded, ErrBreakerOpen
	}
	// Backstop for a sweep panicking through this frame: a leaked probe
	// slot would keep the breaker from ever admitting another probe.
	settled := false
	defer func() {
		if !settled {
			n.Breaker.Release()
		}
	}()
	fn := func() (any, error) {
		return experiments.SweepWorkload(ctx, n.Dev, n.sweepConfig(), wl, n.Grids[grid])
	}
	val, out, err := n.Cache.do(ctx, key, fn)
	for out == SweepJoined && ctx.Err() == nil && errors.Is(err, ErrShared) &&
		(errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)) {
		val, out, err = n.Cache.do(ctx, key, fn)
	}
	settled = true
	switch {
	case out != SweepFresh || errors.Is(err, context.Canceled):
		n.Breaker.Release()
	case err == nil:
		n.Breaker.Success()
	default:
		n.Breaker.Failure()
	}
	cands, _ := val.([]core.Candidate) // nil on every error
	return cands, out, err
}

// progressMu serializes every node's OnProgress calls: a placement
// sweeps all nodes at once, and nodes may share one hook.
var progressMu sync.Mutex

// sweepConfig is n.Cfg with its OnProgress hook serialized.
func (n *Node) sweepConfig() experiments.Config {
	cfg := n.Cfg
	if hook := cfg.OnProgress; hook != nil {
		cfg.OnProgress = func(p experiments.Progress) {
			progressMu.Lock()
			defer progressMu.Unlock()
			hook(p)
		}
	}
	return cfg
}

// WorkloadKey canonicalizes a sweep workload. It is the routing key,
// device-independent so the same workload hashes to the same device no
// matter which device ends up serving it, and each node's cache key:
// a node's sweep noise is seeded by setting identity and its fixed
// campaign seed alone, so equal keys on one node mean identical sweeps.
func WorkloadKey(grid string, wl tegra.Workload) string {
	p := wl.Profile
	return fmt.Sprintf("g=%s occ=%g sp=%g fma=%g add=%g mul=%g int=%g sm=%g l1=%g l2=%g dram=%g",
		grid, wl.Occupancy, p.SP, p.DPFMA, p.DPAdd, p.DPMul, p.Int,
		p.SharedWords, p.L1Words, p.L2Words, p.DRAMWords)
}
