package serve

import (
	"fmt"
	"io"
	"maps"
	"slices"
	"sort"
	"sync"
)

// metrics holds the serving counters: per-endpoint request counts by
// status code, a fixed-bucket latency histogram, the autotune cache
// counters and energy ledgers keyed by device, and an in-flight request
// gauge. All methods are safe for concurrent use. The status views read
// it only through snapshot, and writeMetrics renders the copy in the
// Prometheus text exposition format (version 0.0.4) without pulling in
// a client library.
type metrics struct {
	mu        sync.Mutex
	inflight  int                         // guarded by mu
	endpoints map[string]*endpointMetrics // guarded by mu
	// Per-device cache counters. The legacy single-device node uses the
	// empty key, which prints as the historic unlabeled lines.
	hits     map[string]uint64 // guarded by mu
	misses   map[string]uint64 // guarded by mu
	degraded map[string]uint64 // guarded by mu
	// Per-device energy ledgers, in joules: sweepJ integrates the
	// measured energy of every candidate a fresh sweep burned through;
	// answeredJ integrates the energy of the picks actually returned to
	// clients. Their ratio — energy answered per joule of sweep work —
	// is the cache's leverage: answers served from cache or joined
	// flights add to the numerator without new sweep cost.
	sweepJ    map[string]float64 // guarded by mu
	answeredJ map[string]float64 // guarded by mu
}

// latencyBuckets are the histogram upper bounds in seconds. Prediction
// is sub-millisecond; a cold full-grid autotune sweep can take seconds.
var latencyBuckets = []float64{0.0005, 0.0025, 0.01, 0.05, 0.25, 1, 5}

type endpointMetrics struct {
	codes   map[int]uint64
	buckets []uint64 // cumulative counts per latencyBuckets entry
	sum     float64  // total observed seconds
	count   uint64
}

func newMetrics() *metrics {
	return &metrics{
		endpoints: make(map[string]*endpointMetrics),
		hits:      make(map[string]uint64),
		misses:    make(map[string]uint64),
		degraded:  make(map[string]uint64),
		sweepJ:    make(map[string]float64),
		answeredJ: make(map[string]float64),
	}
}

// observe records one completed request.
func (m *metrics) observe(endpoint string, code int, seconds float64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	e := m.endpoints[endpoint]
	if e == nil {
		e = &endpointMetrics{codes: make(map[int]uint64), buckets: make([]uint64, len(latencyBuckets))}
		m.endpoints[endpoint] = e
	}
	e.codes[code]++
	for i, le := range latencyBuckets {
		if seconds <= le {
			e.buckets[i]++
		}
	}
	e.sum += seconds
	e.count++
}

func (m *metrics) addInflight(d int) {
	m.mu.Lock()
	m.inflight += d
	m.mu.Unlock()
}

func (m *metrics) cacheHit(dev string) {
	m.mu.Lock()
	m.hits[dev]++
	m.mu.Unlock()
}

func (m *metrics) cacheMiss(dev string) {
	m.mu.Lock()
	m.misses[dev]++
	m.mu.Unlock()
}

// degradedHit records one autotune request answered from stale cache
// while the device's circuit breaker was open.
func (m *metrics) degradedHit(dev string) {
	m.mu.Lock()
	m.degraded[dev]++
	m.mu.Unlock()
}

// addSweepJoules charges one device's ledger with the measured energy a
// fresh sweep burned integrating its candidates.
func (m *metrics) addSweepJoules(dev string, j float64) {
	m.mu.Lock()
	m.sweepJ[dev] += j
	m.mu.Unlock()
}

// addAnsweredJoules credits one device's ledger with the energy of a
// pick returned to a client (fresh, cached or degraded alike).
func (m *metrics) addAnsweredJoules(dev string, j float64) {
	m.mu.Lock()
	m.answeredJ[dev] += j
	m.mu.Unlock()
}

// countersSnapshot is a deep copy of the counters, taken under one
// lock acquisition so the numbers are mutually consistent and the
// status views render them after the lock is released.
type countersSnapshot struct {
	inflight  int
	endpoints map[string]endpointMetrics
	hits      map[string]uint64
	misses    map[string]uint64
	degraded  map[string]uint64
	sweepJ    map[string]float64
	answeredJ map[string]float64
}

func (m *metrics) snapshot() countersSnapshot {
	m.mu.Lock()
	defer m.mu.Unlock()
	c := countersSnapshot{
		inflight:  m.inflight,
		endpoints: make(map[string]endpointMetrics, len(m.endpoints)),
		hits:      maps.Clone(m.hits),
		misses:    maps.Clone(m.misses),
		degraded:  maps.Clone(m.degraded),
		sweepJ:    maps.Clone(m.sweepJ),
		answeredJ: maps.Clone(m.answeredJ),
	}
	for ep, e := range m.endpoints {
		c.endpoints[ep] = endpointMetrics{codes: maps.Clone(e.codes), buckets: slices.Clone(e.buckets), sum: e.sum, count: e.count}
	}
	return c
}

func sumCounter(c map[string]uint64) uint64 {
	var total uint64
	for _, v := range c {
		total += v
	}
	return total
}

// Row sets of a per-device /metrics family.
const (
	everyDevice       = iota // one line per device
	calibratedDevices        // devices with a calibration to report on
	fleetDevices             // one line per device, fleet mode only
	fleetTotal               // one unlabeled line, fleet mode only
)

// deviceFamilies are the /metrics families read from the fleet status
// rather than the counters, in exposition order. value returns the
// line's value, printed with %v; fleetTotal families get a nil device.
var deviceFamilies = []struct {
	name, help, typ string
	rows            int
	value           func(st *fleetStatus, d *deviceStatus) any
}{
	{"energyd_breaker_state", "Sweep circuit breaker state (0=closed, 1=half-open, 2=open).", "gauge", everyDevice,
		func(_ *fleetStatus, d *deviceStatus) any { return int(d.breaker) }},
	{"energyd_breaker_opens_total", "Times the sweep breaker has opened.", "counter", everyDevice,
		func(_ *fleetStatus, d *deviceStatus) any { return d.opens }},
	// A runtime add still calibrating has no coverage to report yet.
	{"energyd_calibration_coverage_fraction", "Fraction of calibration samples measured (1 = complete).", "gauge", calibratedDevices,
		func(_ *fleetStatus, d *deviceStatus) any { return d.coverage }},
	{"energyd_calibration_retries_total", "Calibration measurement retries after transient faults.", "counter", calibratedDevices,
		func(_ *fleetStatus, d *deviceStatus) any { return d.cal.Coverage.Retried }},
	{"energyd_calibration_quarantined_total", "Calibration samples quarantined after permanent faults.", "counter", calibratedDevices,
		func(_ *fleetStatus, d *deviceStatus) any { return len(d.cal.Coverage.Quarantined) }},
	{"energyd_calibration_screened_outliers_total", "Calibration samples excluded from the fit by the robust outlier screen.", "counter", calibratedDevices,
		func(_ *fleetStatus, d *deviceStatus) any { return d.cal.Coverage.ScreenedOutliers }},
	{"energyd_fleet_devices", "Devices in the serving fleet.", "gauge", fleetTotal,
		func(st *fleetStatus, _ *deviceStatus) any { return len(st.devices) }},
	{"energyd_fleet_epoch", "Registry membership generation; moves on every add, remove, and state change.", "counter", fleetTotal,
		func(st *fleetStatus, _ *deviceStatus) any { return st.epoch }},
	{"energyd_device_inflight_requests", "Requests currently holding each device.", "gauge", fleetDevices,
		func(_ *fleetStatus, d *deviceStatus) any { return d.inflight }},
	{"energyd_device_state", "Membership lifecycle state (0=active, 1=calibrating, 2=draining, 3=drained, 4=quarantined, 5=probing, 6=removed).", "gauge", fleetDevices,
		func(_ *fleetStatus, d *deviceStatus) any { return int(d.state) }},
	{"energyd_device_cal_generation", "Calibration generation: 1 from boot, +1 per drift recalibration.", "counter", fleetDevices,
		func(_ *fleetStatus, d *deviceStatus) any { return d.calGen }},
	{"energyd_device_quarantines_total", "Times the health loop has quarantined each device.", "counter", fleetDevices,
		func(_ *fleetStatus, d *deviceStatus) any { return d.quarantines }},
	{"energyd_device_recalibrations_total", "Completed drift recalibrations per device.", "counter", fleetDevices,
		func(_ *fleetStatus, d *deviceStatus) any { return d.recals }},
}

// writeMetrics renders one status snapshot in the Prometheus text
// format, in deterministic order so the output is diffable. The legacy
// node's empty ID prints unlabeled lines, so single-device scrapes keep
// the pre-fleet bytes.
func writeMetrics(w io.Writer, st *fleetStatus) {
	header := func(name, help, typ string) {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n", name, help, name, typ)
	}
	c := &st.counters
	endpoints := sortedKeys(c.endpoints)
	header("energyd_requests_total", "Completed HTTP requests by endpoint and status code.", "counter")
	for _, ep := range endpoints {
		e := c.endpoints[ep]
		codes := make([]int, 0, len(e.codes))
		for code := range e.codes {
			codes = append(codes, code)
		}
		sort.Ints(codes)
		for _, code := range codes {
			fmt.Fprintf(w, "energyd_requests_total{endpoint=%q,code=\"%d\"} %d\n", ep, code, e.codes[code])
		}
	}
	header("energyd_request_duration_seconds", "Request latency by endpoint.", "histogram")
	for _, ep := range endpoints {
		e := c.endpoints[ep]
		for i, le := range latencyBuckets {
			fmt.Fprintf(w, "energyd_request_duration_seconds_bucket{endpoint=%q,le=%q} %d\n",
				ep, fmt.Sprintf("%g", le), e.buckets[i])
		}
		fmt.Fprintf(w, "energyd_request_duration_seconds_bucket{endpoint=%q,le=\"+Inf\"} %d\n", ep, e.count)
		fmt.Fprintf(w, "energyd_request_duration_seconds_sum{endpoint=%q} %g\n", ep, e.sum)
		fmt.Fprintf(w, "energyd_request_duration_seconds_count{endpoint=%q} %d\n", ep, e.count)
	}

	// Cache counters come from the counter maps, which keep a removed
	// device's counts: the fleet-wide total first (the pre-fleet line),
	// then one line per named device.
	for _, f := range []struct {
		name, help string
		counts     map[string]uint64
	}{
		{"energyd_autotune_cache_hits_total", "Autotune requests answered from the sweep cache (including joined in-flight sweeps).", c.hits},
		{"energyd_autotune_cache_misses_total", "Autotune requests that ran a fresh sweep.", c.misses},
		{"energyd_autotune_degraded_total", "Autotune requests served stale from cache while the breaker was open.", c.degraded},
	} {
		header(f.name, f.help, "counter")
		fmt.Fprintf(w, "%s %d\n", f.name, sumCounter(f.counts))
		for _, dev := range sortedKeys(f.counts) {
			if dev != "" {
				fmt.Fprintf(w, "%s{device=%q} %d\n", f.name, dev, f.counts[dev])
			}
		}
	}
	header("energyd_inflight_requests", "Requests currently being served.", "gauge")
	fmt.Fprintf(w, "energyd_inflight_requests %d\n", c.inflight)

	for _, f := range deviceFamilies {
		if st.legacy && (f.rows == fleetDevices || f.rows == fleetTotal) {
			continue
		}
		header(f.name, f.help, f.typ)
		if f.rows == fleetTotal {
			fmt.Fprintf(w, "%s %v\n", f.name, f.value(st, nil))
			continue
		}
		for i := range st.devices {
			d := &st.devices[i]
			switch {
			case f.rows == calibratedDevices && d.cal == nil:
			case d.id == "":
				fmt.Fprintf(w, "%s %v\n", f.name, f.value(st, d))
			default:
				fmt.Fprintf(w, "%s{device=%q} %v\n", f.name, d.id, f.value(st, d))
			}
		}
	}
}

func sortedKeys[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
