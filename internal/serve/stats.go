package serve

import (
	"net/http"
	"strconv"

	"dvfsroofline/internal/experiments"
	"dvfsroofline/internal/fleet"
	"dvfsroofline/internal/units"
)

// fleetStatus is the one read of the fleet that every status view
// renders: /v1/stats, /v1/fleet/devices, /readyz, /healthz and
// /metrics. Server.status reads each registry node exactly once — one
// breaker snapshot, one calibration load — and copies the serving
// counters under one metrics lock, so no answer mixes two calibrations
// or two counter states, and no view holds a lock while it writes to
// its client.
type fleetStatus struct {
	legacy   bool // single-device mode: /metrics omits the fleet-only families
	epoch    uint64
	states   map[string]int // lifecycle state name -> device count
	active   int
	open     int // devices whose breaker is open
	devices  []deviceStatus
	counters countersSnapshot
}

// deviceStatus is one node's row of a fleetStatus.
type deviceStatus struct {
	id      string
	seed    int64
	state   fleet.NodeState
	breaker fleet.BreakerState
	opens   uint64
	// cal is nil while a runtime add is still calibrating; samples and
	// coverage then report zero.
	cal         *experiments.Calibration
	samples     int
	coverage    units.Ratio
	calGen      uint64
	recals      uint64
	quarantines uint64
	inflight    int64
	cacheSize   int
	grids       map[string]int // grid name -> candidate count
}

// status takes the snapshot. Nodes() is sorted by ID, which keeps every
// row order deterministic.
func (s *Server) status() fleetStatus {
	st := fleetStatus{
		legacy:   s.legacy,
		epoch:    s.reg.Epoch(),
		states:   make(map[string]int),
		counters: s.metrics.snapshot(),
	}
	nodes := s.reg.Nodes()
	st.devices = make([]deviceStatus, len(nodes))
	for i, n := range nodes {
		d := deviceStatus{
			id:          n.ID,
			seed:        n.Cfg.Seed,
			state:       n.State(),
			cal:         n.Cal(),
			calGen:      n.CalGeneration(),
			recals:      n.Recalibrations(),
			quarantines: n.Quarantines(),
			inflight:    n.Load(),
			cacheSize:   n.Cache.Len(),
			grids:       make(map[string]int, len(n.Grids)),
		}
		d.breaker, d.opens = n.Breaker.Snapshot()
		if d.cal != nil {
			d.samples = len(d.cal.Samples)
			d.coverage = units.Ratio(d.cal.Coverage.Fraction())
		}
		for name, g := range n.Grids {
			d.grids[name] = len(g)
		}
		st.states[d.state.String()]++
		if d.state == fleet.StateActive {
			st.active++
		}
		if d.breaker == fleet.BreakerOpen {
			st.open++
		}
		st.devices[i] = d
	}
	return st
}

// DeviceStats is one device's counter row in a /v1/stats snapshot.
// SweepJ integrates the measured energy of every candidate the device's
// fresh sweeps burned through; AnsweredJ integrates the energy of the
// picks it returned to clients. AnsweredJ/SweepJ — energy answered per
// joule of sweep work — is the cache's leverage: answers served from
// cache or joined flights grow the numerator at zero sweep cost.
type DeviceStats struct {
	DeviceID       string      `json:"device_id"`
	State          string      `json:"state"`
	Breaker        string      `json:"breaker"`
	BreakerOpens   uint64      `json:"breaker_opens"`
	CalGeneration  uint64      `json:"cal_generation"`
	Recalibrations uint64      `json:"recalibrations"`
	Quarantines    uint64      `json:"quarantines"`
	CacheHits      uint64      `json:"cache_hits"`
	CacheMisses    uint64      `json:"cache_misses"`
	DegradedServes uint64      `json:"degraded_serves"`
	SweepJ         units.Joule `json:"sweep_j"`
	AnsweredJ      units.Joule `json:"answered_j"`
	Inflight       int64       `json:"inflight"`
}

// EndpointStats is one endpoint's request counters, split by HTTP
// status code (keys are the decimal codes, e.g. "200").
type EndpointStats struct {
	Requests uint64            `json:"requests"`
	ByCode   map[string]uint64 `json:"by_code"`
}

// StatsResponse is the answer to GET /v1/stats. Epoch and States track
// fleet membership: the registry generation and the per-lifecycle-state
// device counts (active/draining/quarantined/...).
type StatsResponse struct {
	Epoch     uint64                   `json:"epoch"`
	States    map[string]int           `json:"states"`
	Devices   []DeviceStats            `json:"devices"`
	Endpoints map[string]EndpointStats `json:"endpoints"`
}

// handleStats serves the JSON counterpart of /metrics, so the
// energyload replayer (cmd/energyload) can reconcile its report against
// the server without parsing Prometheus text. Device rows sort by ID
// and encoding/json sorts map keys, so identically-seeded runs that
// served identical traffic produce byte-identical snapshots.
func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeError(w, http.StatusMethodNotAllowed, "GET only")
		return
	}
	st := s.status()
	c := &st.counters
	resp := StatsResponse{
		Epoch:     st.epoch,
		States:    st.states,
		Devices:   make([]DeviceStats, len(st.devices)),
		Endpoints: make(map[string]EndpointStats, len(c.endpoints)),
	}
	// Every registry node gets a row, zero counters included, so a
	// report can always find the device it routed to.
	for i, d := range st.devices {
		resp.Devices[i] = DeviceStats{
			DeviceID:       d.id,
			State:          d.state.String(),
			Breaker:        d.breaker.String(),
			BreakerOpens:   d.opens,
			CalGeneration:  d.calGen,
			Recalibrations: d.recals,
			Quarantines:    d.quarantines,
			CacheHits:      c.hits[d.id],
			CacheMisses:    c.misses[d.id],
			DegradedServes: c.degraded[d.id],
			SweepJ:         units.Joule(c.sweepJ[d.id]),
			AnsweredJ:      units.Joule(c.answeredJ[d.id]),
			Inflight:       d.inflight,
		}
	}
	for ep, e := range c.endpoints {
		es := EndpointStats{ByCode: make(map[string]uint64, len(e.codes))}
		for code, count := range e.codes {
			es.ByCode[strconv.Itoa(code)] = count
			es.Requests += count
		}
		resp.Endpoints[ep] = es
	}
	writeJSON(w, http.StatusOK, resp)
}
