package experiments

import (
	"context"
	"fmt"
	"math"
	"sync"

	"dvfsroofline/internal/core"
	"dvfsroofline/internal/dvfs"
	"dvfsroofline/internal/faults"
	"dvfsroofline/internal/microbench"
	"dvfsroofline/internal/stats"
	"dvfsroofline/internal/tegra"
	"dvfsroofline/internal/units"
)

// measureCandidate executes one fixed workload at one setting on one
// device and measures it with microbench.Measure, producing the sweep
// candidate for that grid point. The measurement is keyed on cfg.Seed
// and the setting's identity — never on scheduling order — so any sweep
// built from these units is byte-identical at any worker count. Under
// an active cfg.Faults plan, transient failures retry per cfg.Retry.
func measureCandidate(ctx context.Context, dev *tegra.Device, cfg Config, w tegra.Workload, s dvfs.Setting) (core.Candidate, error) {
	exec := dev.Execute(w, s)
	key := stats.MixSeed(cfg.Seed+9,
		int64(math.Float64bits(float64(s.Core.FreqMHz))), int64(math.Float64bits(float64(s.Core.VoltageMV))),
		int64(math.Float64bits(float64(s.Mem.FreqMHz))), int64(math.Float64bits(float64(s.Mem.VoltageMV))))
	var energy units.Joule
	_, err := faults.Do(ctx, cfg.Retry, func(attempt int) error {
		var err error
		if energy, _, err = microbench.Measure(exec, cfg.Meter, cfg.Faults, key, attempt); err != nil {
			return fmt.Errorf("experiments: sweep at %v: %w", s, err)
		}
		return nil
	})
	if err != nil {
		return core.Candidate{}, err
	}
	return core.Candidate{Setting: s, Profile: w.Profile, Time: exec.Time, MeasuredEnergy: energy}, nil
}

// SweepWorkload measures one fixed workload at every setting of grid:
// the single-device, context-aware entry point behind energyd's sweeps
// (fleet.Node.Sweep). Each grid point executes the same work on the
// device and integrates a simulated PowerMon trace, fanning out over
// cfg.Workers workers; ctx cancellation (a request deadline, a client
// disconnect) stops the sweep between units. Every candidate derives
// its measurement-noise seed from the setting's identity, and a sweep
// with a candidate that fails every retry (a hole in the grid would
// bias the pick) reports the first failure in grid order, so result and
// error alike are byte-identical for any worker count.
func SweepWorkload(ctx context.Context, dev *tegra.Device, cfg Config, w tegra.Workload, grid []dvfs.Setting) ([]core.Candidate, error) {
	if len(grid) == 0 {
		return nil, fmt.Errorf("experiments: empty setting grid")
	}
	res, err := SweepTargets(ctx, cfg, w, []SweepTarget{{Dev: dev, Cfg: cfg, Grid: grid}})
	if err != nil {
		return nil, err
	}
	return res[0].Candidates, res[0].Err
}

// SweepTarget is one device's share of a fleet sweep: the device, its
// own config (seed lineage, fault plan) and its own candidate grid —
// heterogeneous devices may run different slices of the DVFS ladder.
type SweepTarget struct {
	Dev  *tegra.Device
	Cfg  Config
	Grid []dvfs.Setting
}

// TargetSweep is one target's outcome: its candidates, or the first
// error (in grid order) that its share of the sweep produced.
type TargetSweep struct {
	Candidates []core.Candidate
	Err        error
}

// SweepTargets measures one workload on every target, flattening all
// (target, setting) pairs onto a single worker pool (serving sweeps
// through fleet.Node.Sweep; the benchmark's pool probe calls this).
// Each unit derives its measurement-noise seed from its target's
// cfg.Seed and its setting's identity, so per-target results are
// byte-identical to SweepWorkload on that target alone, at any pool
// worker count and in any scheduling order.
//
// One target's permanent failure does not abort the others: its
// TargetSweep carries the first error in grid order and nil candidates
// (points past the lowest failing one are skipped). Only ctx
// cancellation stops the whole fan-out, returning the ctx error.
//
// pool supplies the shared concurrency knobs (Workers, OnProgress);
// per-unit measurement behavior comes from each target's own Cfg.
func SweepTargets(ctx context.Context, pool Config, w tegra.Workload, targets []SweepTarget) ([]TargetSweep, error) {
	if err := w.Validate(); err != nil {
		return nil, fmt.Errorf("experiments: sweep workload: %w", err)
	}
	type unit struct{ target, point int }
	var work []unit
	out := make([]TargetSweep, len(targets))
	failAt := make([]int, len(targets)) // lowest failing point per target (Err's), under mu
	//energylint:allow ctxloop(bounded in-memory setup; the measurement fan-out below runs under forEach, which honors ctx)
	for ti, t := range targets {
		failAt[ti] = len(t.Grid)
		if len(t.Grid) == 0 {
			out[ti].Err = fmt.Errorf("experiments: target %d: empty setting grid", ti)
			continue
		}
		out[ti].Candidates = make([]core.Candidate, len(t.Grid))
		for gi := range t.Grid {
			work = append(work, unit{target: ti, point: gi})
		}
	}
	var mu sync.Mutex
	err := forEach(ctx, pool, "sweep", len(work), func(i int) error {
		u := work[i]
		t := targets[u.target]
		mu.Lock()
		skip := u.point > failAt[u.target]
		mu.Unlock()
		if skip {
			return nil
		}
		c, err := measureCandidate(ctx, t.Dev, t.Cfg, w, t.Grid[u.point])
		if err != nil {
			if ctx.Err() != nil {
				// Cancellation aborts the fan-out; per-target errors are
				// reserved for genuine measurement failures.
				return err
			}
			mu.Lock()
			if u.point < failAt[u.target] {
				failAt[u.target], out[u.target].Err = u.point, err
			}
			mu.Unlock()
			return nil
		}
		out[u.target].Candidates[u.point] = c
		return nil
	})
	if err != nil {
		return nil, err
	}
	for ti := range out {
		if out[ti].Err != nil {
			out[ti].Candidates = nil
		}
	}
	return out, nil
}
