// Command perfbench is the repository's benchmark: one seeded,
// single-process load generator that serves energyd's 3-device test fleet
// in-process through serve.Server.Handler() (no sockets) and runs the
// calibration pipeline through fleet.DefaultRecalibrator.
//
//	bash perfbench/run.sh --workload autotune --seed 1 --seconds 35 --trace 0
//
// --trace 0 measures the end-to-end metrics; --trace 1 splits the time
// into an untraced phase, a traced phase and direct per-layer probes,
// and prints the per-layer metrics. The last line of standard output is
// the JSON result; the line before it describes the run (workload loop,
// clients, machine, Go version and, when traced, which end-to-end metric
// each layer metric should move).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"time"

	"dvfsroofline/internal/serve"
)

// workloadDef declares one workload. Every workload runs a closed
// loop on one client.
type workloadDef struct {
	name   string
	block  int // a measured loop ends only after a whole number of blocks
	warmup int // ops run before timing starts
	minOps int // measured-op floor: p90 needs ten samples beyond it
	traced int // traced ops whose spans and counts are reported
	// opsPerS sizes the never-repeating sequences: 1.5 times the
	// fastest rate measured on a 2-vCPU Xeon runner.
	opsPerS int
}

// workloads: BENCHMARK.json and README.md give each one's reason.
var workloads = []*workloadDef{
	{name: "autotune", block: 4, warmup: 400, minOps: 100, traced: 4000, opsPerS: 5600},
	{name: "place", block: 1, warmup: 32, minOps: 100, traced: 1000, opsPerS: 3400},
	{name: "calibrate", block: 1, warmup: 1, minOps: 100, traced: 16},
}

func lookup(name string) *workloadDef {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	name := flag.String("workload", "", "workload: autotune, place or calibrate")
	seed := flag.Int64("seed", 1, "workload seed")
	seconds := flag.Int("seconds", 20, "measured seconds")
	trace := flag.Int("trace", 0, "1 = traced run with per-layer metrics")
	flag.Parse()
	w := lookup(*name)
	if w == nil || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "usage: perfbench --workload autotune|place|calibrate --seed N --seconds N --trace 0|1")
		os.Exit(2)
	}
	dur := time.Duration(*seconds) * time.Second
	var res *result
	var info map[string]any
	var err error
	if *trace == 0 {
		res, info, err = runUntraced(w, *seed, dur)
	} else {
		res, info, err = runTraced(w, *seed, dur)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	info["workload"] = w.name
	info["loop"] = "closed"
	info["clients"] = 1
	info["seed"] = *seed
	info["nproc"] = runtime.NumCPU()
	info["gomaxprocs"] = runtime.GOMAXPROCS(0)
	info["go"] = runtime.Version()
	emit(map[string]any{"info": info})
	emit(res)
}

func emit(v any) {
	b, err := json.Marshal(v)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(b))
}

// prepare generates the run's inputs, before anything is set up. Never
// repeating sequences get the warm-up and enough ops for opsPerS over
// the whole run.
func prepare(w *workloadDef, seed int64, dur time.Duration) (*inputs, error) {
	return generate(w, seed, w.warmup+max(w.traced, int(dur.Seconds())*w.opsPerS))
}

// phase runs one closed-loop phase on sys: the warm-up ops, untimed,
// with each check's heap allocation measured, then the measured loop.
// Op failures in either count.
func phase(w *workloadDef, sys *system, in *inputs, tr *tracer, dur time.Duration, minOps int) (warm, meas loopResult) {
	ex := newExecutor(w, sys, in, tr)
	warm = closedLoop(ex, tr, in, loopSpec{avail: min(w.warmup, in.available()), block: 1, minOps: w.warmup, measureChecks: true})
	runtime.GC() // every measured loop starts from a collected heap
	meas = closedLoop(ex, tr, in, loopSpec{first: w.warmup, avail: in.available(), block: w.block, minOps: minOps, dur: dur})
	return warm, meas
}

// programAlloc is the measured loop's heap allocation without the
// checks': each check is charged what checks of its kind allocated in
// the warm-up.
func programAlloc(warm, meas loopResult) float64 {
	a := float64(meas.alloc)
	for kind, n := range meas.checks {
		a -= float64(n) * warm.checkAlloc[kind]
	}
	return max(a, 0)
}

// summarize reduces one statistic over the run's windows to the value
// the run reports: the median window's.
func summarize(wins []windowStat, f func(windowStat) float64) float64 {
	xs := make([]float64, len(wins))
	for i, w := range wins {
		xs[i] = f(w)
	}
	return median(xs)
}

// runUntraced measures the end-to-end metrics.
func runUntraced(w *workloadDef, seed int64, dur time.Duration) (*result, map[string]any, error) {
	in, err := prepare(w, seed, dur)
	if err != nil {
		return nil, nil, err
	}
	fc, err := loadFleet(in.fleetSeed)
	if err != nil {
		return nil, nil, err
	}
	setup, sys, err := timedSetup(fc)
	if err != nil {
		return nil, nil, err
	}
	warm, meas := phase(w, sys, in, nil, dur, w.minOps)
	exhausted := !in.cycle && w.warmup+meas.ops >= in.available()
	wins := meas.windows()
	meas.wins = nil
	// Live heap after a forced GC, with the benchmark's own samples
	// dropped (its inputs are off the heap): what the server keeps
	// (fleet, calibrations, sweep caches).
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	runtime.KeepAlive(sys)
	attempted := warm.ops + meas.ops
	ok := warm.ok + meas.ok
	res := &result{
		Correct:   ok == attempted,
		Attempted: attempted,
		Failed:    attempted - ok,
		Metrics: map[string]metric{
			"ops_per_s":       {summarize(wins, func(w windowStat) float64 { return w.OpsPerS }), "1/s"},
			"p50_ms":          {summarize(wins, func(w windowStat) float64 { return w.P50 }) * 1e3, "ms"},
			"p90_ms":          {summarize(wins, func(w windowStat) float64 { return w.P90 }) * 1e3, "ms"},
			"ok_ratio":        {float64(ok) / float64(attempted), "ratio"},
			"setup_s":         {setup, "s"},
			"alloc_kb_per_op": {programAlloc(warm, meas) / float64(max(meas.ops, 1)) / 1024, "KiB"},
			"heap_live_mb":    {float64(ms.HeapAlloc) / (1 << 20), "MiB"},
		},
	}
	info := map[string]any{
		"measured_ops":       meas.ops,
		"measured_s":         meas.elapsed,
		"check_s":            meas.check,
		"check_kb_per_op":    (float64(meas.alloc) - programAlloc(warm, meas)) / float64(max(meas.ops, 1)) / 1024,
		"windows":            wins,
		"samples_beyond_p90": (meas.ops / len(wins)) / 10,
	}
	if exhausted {
		info["note"] = "op sequence exhausted before the time was up"
	}
	return res, info, nil
}

// Trace-mode time split: an untraced phase and a traced phase of the
// same ops (for bench.trace_overhead_pct), then the direct probes.
const (
	untracedShare = 0.3
	tracedShare   = 0.4
	probeShare    = 0.3
	// probeCampaigns calibration campaigns give every workload the
	// campaign spans (experiments.measure_ms, experiments.fit_ms) and a
	// measured calibration for the fit and CV probes.
	probeCampaigns = 3
)

// runTraced measures the per-layer metrics.
func runTraced(w *workloadDef, seed int64, dur time.Duration) (*result, map[string]any, error) {
	in, err := prepare(w, seed, dur)
	if err != nil {
		return nil, nil, err
	}
	pin, err := probeInputs(in)
	if err != nil {
		return nil, nil, err
	}
	fc, err := loadFleet(in.fleetSeed)
	if err != nil {
		return nil, nil, err
	}
	share := func(f float64) time.Duration { return time.Duration(f * float64(dur)) }

	plain, err := build(fc, serve.Options{})
	if err != nil {
		return nil, nil, err
	}
	warmA, untraced := phase(w, plain, in, nil, share(untracedShare), 1)
	plain = nil

	tr := newTracer(w.warmup, w.traced)
	sys, err := tracedSystem(fc, tr)
	if err != nil {
		return nil, nil, err
	}
	warmB, traced := phase(w, sys, in, tr, share(tracedShare), w.traced)

	probeStart := time.Now()
	cal := &calibrateExec{sys: sys, in: in, tr: tr, recal: recalibrator(tr)}
	c := newClient(tr, in, 0)
	campaignsOK := 0
	for k := 1; k <= probeCampaigns; k++ {
		if _, ok := cal.campaign(c, -k, false); ok && cal.verifyCampaign() {
			campaignsOK++
		}
	}
	out := map[string]float64{}
	if err := runProbes(sys, pin, share(probeShare)-time.Since(probeStart), out); err != nil {
		return nil, nil, err
	}

	spans := tr.spans
	self := selfTimes(spans)
	med := func(name string, unit time.Duration, useSelf bool) float64 {
		s := self
		if !useSelf {
			s = nil
		}
		return median(byName(spans, s, name, unit))
	}
	out["serve.handle_us"] = med("serve.handle", time.Microsecond, false)
	out["serve.encode_us"] = med("serve.encode", time.Microsecond, false)
	out["serve.wrap_us"] = med("serve.http", time.Microsecond, true)
	out["experiments.measure_ms"] = med("experiments.measure", time.Millisecond, false)
	out["experiments.fit_ms"] = med("experiments.fit", time.Millisecond, false)
	counts := countMetrics(tr)
	for k, v := range counts {
		out[k] = v
	}
	out["bench.trace_overhead_pct"] = 100 * (1 - (float64(traced.ok)/traced.busy())/(float64(untraced.ok)/untraced.busy()))

	attempted := warmA.ops + untraced.ops + warmB.ops + traced.ops + probeCampaigns
	ok := warmA.ok + untraced.ok + warmB.ok + traced.ok + campaignsOK
	res := &result{Correct: ok == attempted, Attempted: attempted, Failed: attempted - ok, Metrics: map[string]metric{}}
	if w.name == "autotune" && counts["fleet.cache_hit_ratio"] != float64(w.block-1)/float64(w.block) {
		res.Correct = false
	}
	for _, m := range layerMetrics {
		v, ok := out[m.name]
		if !ok {
			return nil, nil, fmt.Errorf("per-layer metric %s was not measured", m.name)
		}
		res.Metrics[m.name] = metric{v, m.unit}
	}
	spansPath := fmt.Sprintf(".bench_build/perfbench-spans-%s.jsonl", w.name)
	if err := writeSpans(spansPath, spans); err != nil {
		return nil, nil, err
	}
	moves := map[string]string{}
	for _, m := range layerMetrics {
		moves[m.name] = m.moves
	}
	info := map[string]any{
		"untraced_ops_per_s": float64(untraced.ok) / untraced.busy(),
		"traced_ops_per_s":   float64(traced.ok) / traced.busy(),
		"traced_ops":         w.traced,
		"spans":              spansPath,
		"moves":              moves,
	}
	return res, info, nil
}

// countMetrics reduces the recorded ops' exact counts. They cover the
// same op indices on every run of a seed, so they repeat exactly.
func countMetrics(tr *tracer) map[string]float64 {
	n := float64(tr.n)
	units, bytes, hits := 0, 0, 0
	devices := map[string]int{}
	for id := tr.first; id < tr.first+tr.n; id++ {
		c := tr.counts[id]
		units += c.units
		bytes += c.bytes
		if c.hit {
			hits++
		}
		devices[c.device]++
	}
	share := 0
	for _, k := range devices {
		share = max(share, k)
	}
	return map[string]float64{
		"experiments.units_per_op": float64(units) / n,
		"serve.resp_bytes":         float64(bytes) / n,
		"fleet.cache_hit_ratio":    float64(hits) / n,
		"fleet.device_share_max":   float64(share) / n,
	}
}
