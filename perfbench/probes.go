package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"runtime"
	"time"

	"dvfsroofline/internal/core"
	"dvfsroofline/internal/dvfs"
	"dvfsroofline/internal/experiments"
	"dvfsroofline/internal/fleet"
	"dvfsroofline/internal/microbench"
	"dvfsroofline/internal/powermon"
	"dvfsroofline/internal/serve"
	"dvfsroofline/internal/stats"
	"dvfsroofline/internal/tegra"
	"dvfsroofline/internal/units"
)

// The probes time each layer's public functions directly, fed the
// workload's own generated inputs. Each probe repeats batches of calls
// for its share of the probe phase and reports the median batch's
// per-call time, so one slow batch (a GC pause) does not move it.

// probeInput is one workload input as the lower layers see it.
type probeInput struct {
	key string // routing key: the request body
	wl  tegra.Workload
	set dvfs.Setting
}

// maxProbeInputs bounds how many distinct ops the probes cycle over.
const maxProbeInputs = 256

// probeInputs decodes the workload's first distinct ops, pairing each
// profile with a grid setting in turn; calibrate, which sends no
// bodies, uses the profile pool at the maximum setting.
func probeInputs(in *inputs) ([]probeInput, error) {
	var out []probeInput
	grid := dvfs.Grid()
	for i := 0; i < in.n && len(out) < maxProbeInputs; i++ {
		o := in.opAt(i)
		if o.warm || len(o.body) == 0 {
			continue
		}
		var req serve.AutotuneRequest
		if err := json.Unmarshal(o.body, &req); err != nil {
			return nil, err
		}
		out = append(out, probeInput{string(o.body), tegra.Workload{Profile: profileOf(req.Profile), Occupancy: occupancy(req.Occupancy)}, grid[len(out)%len(grid)]})
	}
	if len(out) == 0 {
		for _, e := range in.pool {
			b, err := json.Marshal(e)
			if err != nil {
				return nil, err
			}
			out = append(out, probeInput{string(b), tegra.Workload{Profile: profileOf(e.Profile), Occupancy: occupancy(e.Occupancy)}, dvfs.MaxSetting()})
		}
	}
	return out, nil
}

// timing is one probe's result: median seconds and heap bytes per call.
type timing struct{ s, bytes float64 }

// perCall runs fn over consecutive indices in batches of batch calls
// until budget is spent (at least minBatches batches) and returns the
// median batch's per-call time and allocation.
func perCall(budget time.Duration, batch, minBatches int, fn func(j int) error) (timing, error) {
	var secs, allocs []float64
	var ms0, ms1 runtime.MemStats
	start := time.Now()
	for b := 0; b < minBatches || time.Since(start) < budget; b++ {
		runtime.ReadMemStats(&ms0)
		t0 := time.Now()
		for j := b * batch; j < (b+1)*batch; j++ {
			if err := fn(j); err != nil {
				return timing{}, err
			}
		}
		el := time.Since(t0).Seconds()
		runtime.ReadMemStats(&ms1)
		secs = append(secs, el/float64(batch))
		allocs = append(allocs, float64(ms1.TotalAlloc-ms0.TotalAlloc)/float64(batch))
	}
	return timing{median(secs), median(allocs)}, nil
}

// prober holds what the probes share.
type prober struct {
	sys    *system
	ref    *fleet.Node
	cfg    experiments.Config // the reference node's config, without the trace hook
	in     []probeInput
	budget time.Duration
	out    map[string]float64
}

// runProbes fills out with every direct-call metric, spending about
// total on them. The calibration probes (core.fit_ms, core.cv_*) run on
// the reference node's live calibration, which the campaign probe has
// just measured.
func runProbes(sys *system, in []probeInput, total time.Duration, out map[string]float64) error {
	ref, ok := sys.reg.Get(refDevice)
	if !ok {
		return fmt.Errorf("fleet has no %s", refDevice)
	}
	p := &prober{sys: sys, ref: ref, cfg: ref.Cfg, in: in, budget: total / time.Duration(len(probeList)), out: out}
	p.cfg.OnProgress = nil
	for _, pr := range probeList {
		if err := pr.fn(p); err != nil {
			return fmt.Errorf("probe %s: %w", pr.name, err)
		}
	}
	return nil
}

var probeList = []struct {
	name string
	fn   func(p *prober) error
}{
	{"fleet.route", (*prober).route},
	{"fleet.cache", (*prober).cacheHit},
	{"tegra.execute", (*prober).execute},
	{"core.predict", (*prober).predict},
	{"core.score", (*prober).score},
	{"experiments.sweep", (*prober).sweep},
	{"experiments.fleetsweep", (*prober).fleetSweep},
	{"microbench.unit", (*prober).unit},
	{"powermon.meter", (*prober).meterNew},
	{"powermon.measure", (*prober).measure},
	{"stats.newrng", (*prober).newRNG},
	{"core.fit", (*prober).fit},
	{"core.cv", (*prober).cv},
}

func (p *prober) pick(j int) *probeInput { return &p.in[j%len(p.in)] }

func (p *prober) route() error {
	var sink *fleet.Node
	t, err := perCall(p.budget, 256, 5, func(j int) error {
		sink, _ = p.sys.reg.RouteHealthy(p.pick(j).key)
		if sink == nil {
			return fmt.Errorf("no route")
		}
		return nil
	})
	p.out["fleet.route_us"] = t.s * 1e6
	return err
}

// cacheHit times Cache.Do on present keys of a cache the benchmark
// owns, so the serving caches are left alone.
func (p *prober) cacheHit() error {
	c := fleet.NewCache(64)
	n := min(64, len(p.in))
	for j := 0; j < n; j++ {
		c.Put(p.pick(j).key, j)
	}
	ctx := context.Background()
	miss := func() (any, error) { return nil, fmt.Errorf("cache probe missed") }
	t, err := perCall(p.budget, 256, 5, func(j int) error {
		_, hit, err := c.Do(ctx, p.pick(j%n).key, miss)
		if err == nil && !hit {
			err = fmt.Errorf("cache probe missed")
		}
		return err
	})
	p.out["fleet.cache_hit_us"] = t.s * 1e6
	return err
}

func (p *prober) execute() error {
	var sink units.Second
	t, err := perCall(p.budget, 64, 5, func(j int) error {
		in := p.pick(j)
		sink += p.ref.Dev.Execute(in.wl, in.set).Time
		return nil
	})
	p.out["tegra.execute_us"] = t.s * 1e6
	return err
}

func (p *prober) predict() error {
	times := make([]units.Second, len(p.in))
	for j := range p.in {
		times[j] = p.ref.Dev.Execute(p.in[j].wl, p.in[j].set).Time
	}
	m := p.ref.Cal().Model
	var sink units.Joule
	t, err := perCall(p.budget, 256, 5, func(j int) error {
		in := p.pick(j)
		sink += m.PredictParts(in.wl.Profile, in.set, times[j%len(times)]).Total()
		return nil
	})
	p.out["core.predict_us"] = t.s * 1e6
	return err
}

// score runs the three §II-E pickers over one finished full-grid sweep.
func (p *prober) score() error {
	cands, err := experiments.SweepWorkload(context.Background(), p.ref.Dev, p.cfg, p.in[0].wl, p.ref.Grids["full"])
	if err != nil {
		return err
	}
	m := p.ref.Cal().Model
	sink := 0
	t, err := perCall(p.budget, 64, 5, func(int) error {
		sink += m.PickModelMinEnergy(cands) + core.PickTimeOracle(cands) + core.PickMeasuredMin(cands)
		return nil
	})
	p.out["core.score_us"] = t.s * 1e6
	return err
}

func (p *prober) sweep() error {
	ctx := context.Background()
	t, err := perCall(p.budget, 1, 3, func(j int) error {
		_, err := experiments.SweepWorkload(ctx, p.ref.Dev, p.cfg, p.pick(j).wl, p.ref.Grids["full"])
		return err
	})
	p.out["experiments.sweep_ms"] = t.s * 1e3
	return err
}

// fleetSweep times SweepTargets over every device's calibration grid,
// and the same targets swept one after another on one worker each; the
// ratio is how well the shared pool keeps its workers busy.
func (p *prober) fleetSweep() error {
	ctx := context.Background()
	nodes := p.sys.reg.Nodes()
	targets := make([]experiments.SweepTarget, len(nodes))
	units := 0
	for i, n := range nodes {
		cfg := n.Cfg
		cfg.OnProgress = nil
		targets[i] = experiments.SweepTarget{Dev: n.Dev, Cfg: cfg, Grid: n.Grids["calibration"]}
		units += len(targets[i].Grid)
	}
	workers := min(runtime.GOMAXPROCS(0), units)
	var walls, effs []float64
	start := time.Now()
	for j := 0; j < 3 || time.Since(start) < p.budget; j++ {
		wl := p.pick(j).wl
		serial := 0.0
		for _, t := range targets {
			one := t.Cfg
			one.Workers = 1
			t0 := time.Now()
			if _, err := experiments.SweepWorkload(ctx, t.Dev, one, wl, t.Grid); err != nil {
				return err
			}
			serial += time.Since(t0).Seconds()
		}
		t0 := time.Now()
		res, err := experiments.SweepTargets(ctx, targets[0].Cfg, wl, targets)
		wall := time.Since(t0).Seconds()
		if err != nil {
			return err
		}
		for _, r := range res {
			if r.Err != nil {
				return r.Err
			}
		}
		walls = append(walls, wall)
		effs = append(effs, serial/(wall*float64(workers)))
	}
	p.out["experiments.fleetsweep_ms"] = median(walls) * 1e3
	p.out["experiments.pool_efficiency"] = median(effs)
	return nil
}

// unit times Runner.RunAttempt over a spread of the 1856 calibration
// samples, with the runner a campaign on the reference node builds.
func (p *prober) unit() error {
	r := &microbench.Runner{Device: p.ref.Dev, Seed: p.cfg.Seed + 1}
	suite := microbench.Suite()
	settings := dvfs.CalibrationSettings()
	n := len(suite) * len(settings)
	t, err := perCall(p.budget, 8, 5, func(j int) error {
		k := (j * 37) % n
		_, err := r.RunAttempt(suite[k%len(suite)], settings[k/len(suite)].Setting, 0)
		return err
	})
	p.out["microbench.unit_us"] = t.s * 1e6
	return err
}

func (p *prober) meterNew() error {
	cfg := powermon.DefaultConfig()
	t, err := perCall(p.budget, 64, 5, func(j int) error {
		_, err := powermon.NewMeter(cfg, int64(j)+1)
		return err
	})
	p.out["powermon.meter_new_us"] = t.s * 1e6
	p.out["powermon.meter_new_kb"] = t.bytes / 1024
	return err
}

// measure integrates sweep-candidate power traces: each input executed
// at its setting, repeated until the run fills the meter's window, as
// a sweep measures it.
func (p *prober) measure() error {
	meter, err := powermon.NewMeter(powermon.DefaultConfig(), 1)
	if err != nil {
		return err
	}
	type run struct {
		trace func(units.Second) units.Watt
		dur   units.Second
	}
	runs := make([]run, len(p.in))
	for j, in := range p.in {
		exec := p.ref.Dev.Execute(in.wl, in.set)
		runs[j] = run{exec.PowerAt, exec.Time}
		if window := meter.MinDuration(16); exec.Time < window {
			period := float64(exec.Time)
			runs[j].trace = func(t units.Second) units.Watt { return exec.PowerAt(units.Second(math.Mod(float64(t), period))) }
			runs[j].dur = units.Second(math.Ceil(float64(window/exec.Time)) * period)
		}
	}
	t, err := perCall(p.budget, 8, 5, func(j int) error {
		r := runs[j%len(runs)]
		_, err := meter.Measure(r.trace, r.dur)
		return err
	})
	p.out["powermon.measure_us"] = t.s * 1e6
	return err
}

func (p *prober) newRNG() error {
	var sink float64
	t, err := perCall(p.budget, 64, 5, func(j int) error {
		sink += stats.NewRNG(int64(j)).Float64()
		return nil
	})
	p.out["stats.newrng_us"] = t.s * 1e6
	return err
}

// calibrationSets splits the live calibration the way the pipeline
// does: the valid training samples for the fit, and the valid samples
// with their train mask and setting groups for the validations.
func (p *prober) calibrationSets() (train, valid []core.Sample, mask []bool, groups []int) {
	cal := p.ref.Cal()
	per := len(cal.Samples) / len(dvfs.CalibrationSettings())
	for i, s := range cal.Samples {
		if !cal.Valid[i] {
			continue
		}
		if cal.TrainMask[i] {
			train = append(train, s)
		}
		valid = append(valid, s)
		mask = append(mask, cal.TrainMask[i])
		groups = append(groups, i/per)
	}
	return train, valid, mask, groups
}

func (p *prober) fit() error {
	train, _, _, _ := p.calibrationSets()
	t, err := perCall(p.budget, 1, 3, func(int) error {
		_, err := core.Fit(train)
		return err
	})
	p.out["core.fit_ms"] = t.s * 1e3
	return err
}

func (p *prober) cv() error {
	_, valid, mask, groups := p.calibrationSets()
	t, err := perCall(p.budget, 1, 3, func(int) error {
		if _, err := core.HoldoutValidate(valid, mask); err != nil {
			return err
		}
		_, err := core.CrossValidateGrouped(valid, groups)
		return err
	})
	p.out["core.cv_ms"] = t.s * 1e3
	p.out["core.cv_kb"] = t.bytes / 1024
	return err
}
