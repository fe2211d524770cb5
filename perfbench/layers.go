package main

// layerMetric is one per-layer metric of a traced run, with the
// end-to-end metric and workload it should move: the prediction a
// change to that layer is judged against.
type layerMetric struct {
	name, unit, moves string
}

var layerMetrics = []layerMetric{
	{"serve.handle_us", "us", "p50_ms on autotune, p50_ms on place (instrument's first Clock() to WriteHeader: decode, route, model work, scoring)"},
	{"serve.encode_us", "us", "p50_ms on autotune and place (WriteHeader to last Write)"},
	{"serve.wrap_us", "us", "ops_per_s and p50_ms on autotune (ServeHTTP minus the instrument span: mux, status wrapper, metrics lock)"},
	{"serve.resp_bytes", "bytes", "alloc_kb_per_op on autotune and place (mean response size, exact count)"},
	{"fleet.route_us", "us", "p50_ms on autotune (Registry.RouteHealthy over the workload's keys)"},
	{"fleet.cache_hit_ratio", "ratio", "p50_ms and ops_per_s on autotune (declared 0.75 there, exact)"},
	{"fleet.cache_hit_us", "us", "p50_ms on autotune (Cache.Do on a present key of the benchmark's own cache)"},
	{"fleet.device_share_max", "ratio", "ops_per_s on autotune when routing changes (from X-Energyd-Device; place: winners)"},
	{"tegra.execute_us", "us", "p90_ms on autotune, p50_ms on place (Device.Execute, once per swept setting)"},
	{"core.predict_us", "us", "p50_ms on autotune and place (Model.PredictParts; scoring predicts every candidate)"},
	{"core.score_us", "us", "p50_ms on autotune and place (the three pickers over a finished sweep)"},
	{"core.fit_ms", "ms", "p50_ms on calibrate (core.Fit on a campaign's training samples)"},
	{"core.cv_ms", "ms", "p50_ms on calibrate (HoldoutValidate + CrossValidateGrouped)"},
	{"core.cv_kb", "KiB", "alloc_kb_per_op on calibrate (heap allocated by the validations)"},
	{"experiments.units_per_op", "count", "none: OnProgress completions per op, exact; it changes only when the sweep or campaign shape does"},
	{"experiments.sweep_ms", "ms", "p90_ms on autotune (SweepWorkload over the full grid)"},
	{"experiments.fleetsweep_ms", "ms", "p50_ms on place (SweepTargets over every device's calibration grid)"},
	{"experiments.pool_efficiency", "ratio", "p50_ms on place and calibrate (serial per-target sweep time / (SweepTargets wall x workers))"},
	{"experiments.measure_ms", "ms", "p50_ms on calibrate (campaign start to its last OnProgress unit)"},
	{"experiments.fit_ms", "ms", "p50_ms on calibrate (last unit until the recalibrator returns: fit, screen, holdout, CV)"},
	{"microbench.unit_us", "us", "p50_ms on calibrate (Runner.RunAttempt)"},
	{"powermon.meter_new_us", "us", "p90_ms on autotune, p50_ms on place and calibrate (NewMeter, RNG seeding included)"},
	{"powermon.meter_new_kb", "KiB", "alloc_kb_per_op on autotune, place and calibrate (heap allocated by NewMeter)"},
	{"powermon.measure_us", "us", "p90_ms on autotune, p50_ms on place and calibrate (Meter.Measure on a candidate trace)"},
	{"stats.newrng_us", "us", "whatever powermon.meter_new_us moves (stats.NewRNG)"},
	{"bench.trace_overhead_pct", "%", "none: traced vs untraced ops_per_s of the same ops, the cost of tracing itself"},
}
