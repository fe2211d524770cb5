package serve

import (
	"fmt"
	"net/http"
	"sync"

	"dvfsroofline/internal/core"
	"dvfsroofline/internal/fleet"
	"dvfsroofline/internal/units"
)

// FleetPredictRequest is a predict request routed across the fleet.
// device pins the answer to one named device; otherwise the request's
// consistent hash picks its deterministic home.
type FleetPredictRequest struct {
	PredictRequest
	Device string `json:"device,omitempty"`
}

// FleetPredictResponse names the device whose simulator and calibration
// produced the embedded prediction.
type FleetPredictResponse struct {
	DeviceID string `json:"device_id"`
	PredictResponse
}

func (s *Server) handleFleetPredict(w http.ResponseWriter, r *http.Request) {
	var req FleetPredictRequest
	if !decodeJSON(w, r, &req) {
		return
	}
	// ?route= selects the placement policy: "hash" (the default) is the
	// consistent-hash home with its cache affinity and deterministic
	// answers; "least_loaded" sheds bursts onto the idlest device at the
	// cost of affinity. A pinned device overrides either.
	route := r.URL.Query().Get("route")
	switch route {
	case "", "hash", "least_loaded":
	default:
		writeError(w, http.StatusBadRequest, fmt.Sprintf("unknown route %q (want \"hash\" or \"least_loaded\")", route))
		return
	}
	var node *fleet.Node
	switch {
	case req.Device != "":
		n, ok := s.reg.Get(req.Device)
		if !ok {
			writeErrorDev(w, http.StatusNotFound, fmt.Sprintf("unknown device %q", req.Device), req.Device)
			return
		}
		node = n
	case route == "least_loaded":
		node = s.reg.LeastLoaded()
	default:
		node = s.reg.Route(predictKey(req.PredictRequest))
	}
	if node == nil {
		writeError(w, http.StatusServiceUnavailable, "no active device in the fleet")
		return
	}
	// Routed nodes are active and so calibrated; a pinned device may
	// still be calibrating after a runtime add.
	cal := node.Cal()
	if cal == nil {
		writeErrorDev(w, http.StatusServiceUnavailable, fmt.Sprintf("device %q is still calibrating", node.ID), node.ID)
		return
	}
	release := node.Acquire()
	defer release()
	resp, err := s.predictOn(node, cal.Model, req.PredictRequest)
	if err != nil {
		writeErrorDev(w, http.StatusBadRequest, err.Error(), node.ID)
		return
	}
	markDevice(w, node.ID)
	writeJSON(w, http.StatusOK, FleetPredictResponse{DeviceID: node.ID, PredictResponse: resp})
}

// DevicePlacement is one device's sweep outcome inside a /v1/fleet/place
// answer: the three §II-E picks over that device's own grid slice.
type DevicePlacement struct {
	DeviceID             string        `json:"device_id"`
	Candidates           int           `json:"candidates"`
	Model                PickJSON      `json:"model"`
	TimeOracle           PickJSON      `json:"time_oracle"`
	MeasuredMin          PickJSON      `json:"measured_min"`
	ModelExtraEnergyPct  units.Percent `json:"model_extra_energy_pct"`
	OracleExtraEnergyPct units.Percent `json:"oracle_extra_energy_pct"`
}

// PlaceSkip records a device that could not contribute to a placement
// and why (open breaker, sweep failure).
type PlaceSkip struct {
	DeviceID string `json:"device_id"`
	Reason   string `json:"reason"`
}

// PlaceResponse is the answer to a /v1/fleet/place request: every
// device's sweep outcome sorted by device ID, and the winner — the
// argmin of measured sweep energy across the fleet, ties broken by ID.
// The body carries no cache or degraded flags: a placement is a pure
// function of the workload and the fleet, so repeated calls return
// byte-identical answers.
type PlaceResponse struct {
	Grid       string            `json:"grid"`
	Devices    []DevicePlacement `json:"devices"`
	Skipped    []PlaceSkip       `json:"skipped,omitempty"`
	Winner     string            `json:"winner"`
	WinnerPick PickJSON          `json:"winner_pick"`
}

// handleFleetPlace answers "which device runs this workload cheapest,
// and at which DVFS setting?" It sweeps every active device
// concurrently through fleet.Node.Sweep, then scores each sweep and
// takes the argmin. A device whose sweep failed or whose open breaker
// has no cached sweep is skipped; only the end of this request's own
// context (deadline, disconnect) fails the whole placement.
func (s *Server) handleFleetPlace(w http.ResponseWriter, r *http.Request) {
	var req AutotuneRequest
	if !decodeJSON(w, r, &req) {
		return
	}
	gridName, wl := req.sweepInput()
	if err := wl.Validate(); err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	// Placement considers active devices only: draining and quarantined
	// members keep their in-flight work but take no new sweeps.
	nodes := s.reg.Active()
	if len(nodes) == 0 {
		writeError(w, http.StatusServiceUnavailable, "no active device in the fleet")
		return
	}
	if _, ok := nodes[0].Grids[gridName]; !ok {
		writeError(w, http.StatusBadRequest, fmt.Sprintf("unknown grid %q (want \"calibration\" or \"full\")", gridName))
		return
	}

	ctx, cancel := s.sweepContext(r, req.TimeoutS)
	defer cancel()
	sweeps := make([][]core.Candidate, len(nodes))
	errs := make([]error, len(nodes))
	panics := make([]any, len(nodes))
	var wg sync.WaitGroup
	for i, n := range nodes {
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer func() { panics[i] = recover() }()
			sweeps[i], _, errs[i] = s.sweep(ctx, n, gridName, wl)
		}()
	}
	wg.Wait()
	// Re-panic where net/http contains it, not in a bare goroutine.
	for _, p := range panics {
		if p != nil {
			panic(p)
		}
	}

	// Score per device and take the fleet argmin. Sorted-ID order makes
	// the skip list and the strict < tie-break deterministic.
	resp := PlaceResponse{Grid: gridName}
	winner := -1
	for i, n := range nodes {
		if err := errs[i]; err != nil {
			if ctx.Err() != nil {
				code, msg := sweepError(ctx.Err())
				writeError(w, code, msg)
				return
			}
			resp.Skipped = append(resp.Skipped, PlaceSkip{DeviceID: n.ID, Reason: err.Error()})
			continue
		}
		sc := scoreSweep(n.Cal().Model, gridName, sweeps[i])
		resp.Devices = append(resp.Devices, DevicePlacement{
			DeviceID:             n.ID,
			Candidates:           sc.Candidates,
			Model:                sc.Model,
			TimeOracle:           sc.TimeOracle,
			MeasuredMin:          sc.MeasuredMin,
			ModelExtraEnergyPct:  sc.ModelExtraEnergyPct,
			OracleExtraEnergyPct: sc.OracleExtraEnergyPct,
		})
		d := len(resp.Devices) - 1
		if winner < 0 || resp.Devices[d].MeasuredMin.MeasuredJ < resp.Devices[winner].MeasuredMin.MeasuredJ {
			winner = d
		}
	}
	if winner < 0 {
		writeError(w, http.StatusServiceUnavailable, "no device could sweep this workload")
		return
	}
	resp.Winner = resp.Devices[winner].DeviceID
	resp.WinnerPick = resp.Devices[winner].MeasuredMin
	s.metrics.addAnsweredJoules(resp.Winner, float64(resp.WinnerPick.MeasuredJ))
	writeJSON(w, http.StatusOK, resp)
}

// DeviceInfo is one device's row in the fleet inventory. Samples and
// Coverage are zero while a runtime-added device is still calibrating.
type DeviceInfo struct {
	DeviceID string `json:"device_id"`
	Seed     int64  `json:"seed"`
	// State is the membership lifecycle state (active, calibrating,
	// draining, quarantined, probing).
	State   string `json:"state"`
	Breaker string `json:"breaker"`
	// CalGeneration counts calibration swaps: 1 from boot, +1 per drift
	// recalibration.
	CalGeneration  uint64         `json:"cal_generation"`
	Recalibrations uint64         `json:"recalibrations"`
	Quarantines    uint64         `json:"quarantines"`
	Samples        int            `json:"samples"`
	Coverage       units.Ratio    `json:"coverage"`
	CacheEntries   int            `json:"cache_entries"`
	Inflight       int64          `json:"inflight"`
	Grids          map[string]int `json:"grids"`
}

// DevicesResponse is the answer to GET /v1/fleet/devices, sorted by
// device ID. Epoch is the registry's membership generation — it moves
// on every add, remove, and state change.
type DevicesResponse struct {
	Epoch   uint64         `json:"epoch"`
	States  map[string]int `json:"states"`
	Devices []DeviceInfo   `json:"devices"`
}

// handleFleetDevices dispatches the collection endpoint: GET lists the
// inventory, POST (admin) adds a device.
func (s *Server) handleFleetDevices(w http.ResponseWriter, r *http.Request) {
	switch r.Method {
	case http.MethodGet:
		s.handleFleetDevicesList(w, r)
	case http.MethodPost:
		s.handleFleetDeviceAdd(w, r)
	default:
		writeError(w, http.StatusMethodNotAllowed, "GET or POST only")
	}
}

func (s *Server) handleFleetDevicesList(w http.ResponseWriter, r *http.Request) {
	st := s.status()
	resp := DevicesResponse{
		Epoch:   st.epoch,
		States:  st.states,
		Devices: make([]DeviceInfo, len(st.devices)),
	}
	for i, d := range st.devices {
		resp.Devices[i] = DeviceInfo{
			DeviceID:       d.id,
			Seed:           d.seed,
			State:          d.state.String(),
			Breaker:        d.breaker.String(),
			CalGeneration:  d.calGen,
			Recalibrations: d.recals,
			Quarantines:    d.quarantines,
			Samples:        d.samples,
			Coverage:       d.coverage,
			CacheEntries:   d.cacheSize,
			Inflight:       d.inflight,
			Grids:          d.grids,
		}
	}
	writeJSON(w, http.StatusOK, resp)
}
