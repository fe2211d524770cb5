package serve_test

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"dvfsroofline/internal/experiments"
	"dvfsroofline/internal/faults"
	"dvfsroofline/internal/serve"
)

// Both sweep endpoints run every device sweep through fleet.Node.Sweep,
// so identical concurrent requests share one flight per device whichever
// endpoint they arrive on.

const sweepBody = `{"profile": {"dp_fma": 2e8, "int": 1e8, "dram_words": 5e7}, "occupancy": 0.9}`

// deviceStats reads /v1/stats into a per-device map.
func deviceStats(t *testing.T, h http.Handler) map[string]serve.DeviceStats {
	t.Helper()
	w := get(t, h, "/v1/stats")
	if w.Code != http.StatusOK {
		t.Fatalf("/v1/stats = %d: %s", w.Code, w.Body)
	}
	var stats serve.StatsResponse
	if err := json.Unmarshal(w.Body.Bytes(), &stats); err != nil {
		t.Fatal(err)
	}
	out := make(map[string]serve.DeviceStats, len(stats.Devices))
	for _, d := range stats.Devices {
		out[d.DeviceID] = d
	}
	return out
}

// onePlaceSweepJ is each device's sweep_j after a single place of
// sweepBody on a fresh fleet: the cost of exactly one sweep per device.
func onePlaceSweepJ(t *testing.T) (map[string]serve.DeviceStats, string) {
	t.Helper()
	h := heterogeneousFleet(t, 2).Handler()
	w := post(t, h, "/v1/fleet/place", sweepBody)
	if w.Code != http.StatusOK {
		t.Fatalf("reference place = %d: %s", w.Code, w.Body)
	}
	return deviceStats(t, h), w.Body.String()
}

// gateFirstUnit makes the first sweep unit any device of s finishes
// block until the returned release is called, holding that device's
// flight open; started closes once it is blocked.
func gateFirstUnit(t *testing.T, s *serve.Server) (started <-chan struct{}, release func()) {
	t.Helper()
	var once sync.Once
	first, gate := make(chan struct{}), make(chan struct{})
	for _, n := range s.Registry().Nodes() {
		n.Cfg.OnProgress = func(experiments.Progress) {
			blocked := false
			once.Do(func() { blocked = true; close(first) })
			if blocked {
				<-gate
			}
		}
	}
	return first, func() { close(gate) }
}

func waitStarted(t *testing.T, started <-chan struct{}) {
	t.Helper()
	select {
	case <-started:
	case <-time.After(10 * time.Second):
		t.Fatal("no sweep started")
	}
}

// TestConcurrentPlacesSweepOncePerDevice fires 8 identical places while
// the first one's sweep is held open: every device must run exactly one
// sweep, and every other request is a cache hit or a joined flight.
func TestConcurrentPlacesSweepOncePerDevice(t *testing.T) {
	ref, refBody := onePlaceSweepJ(t)
	s := heterogeneousFleet(t, 2)
	h := s.Handler()
	started, release := gateFirstUnit(t, s)

	const n = 8
	bodies := make([]*httptest.ResponseRecorder, n)
	var wg sync.WaitGroup
	fire := func(i int) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			bodies[i] = post(t, h, "/v1/fleet/place", sweepBody)
		}()
	}
	fire(0)
	waitStarted(t, started)
	for i := 1; i < n; i++ {
		fire(i)
	}
	// The pause lets the other places reach the devices while the held
	// flight is open, where a path that does not join flights runs a
	// second sweep. The assertions below hold whether a place joins the
	// flight or arrives after it and hits the cache.
	time.Sleep(50 * time.Millisecond)
	release()
	wg.Wait()

	for i, w := range bodies {
		if w.Code != http.StatusOK || w.Body.String() != refBody {
			t.Errorf("place %d = %d, want the reference body:\n got  %s\n want %s", i, w.Code, w.Body, refBody)
		}
	}
	for id, d := range deviceStats(t, h) {
		if d.SweepJ != ref[id].SweepJ {
			t.Errorf("device %s sweep_j = %g, want one sweep's %g", id, d.SweepJ, ref[id].SweepJ)
		}
		if d.CacheMisses != 1 || d.CacheHits != n-1 {
			t.Errorf("device %s cache misses/hits = %d/%d, want 1/%d", id, d.CacheMisses, d.CacheHits, n-1)
		}
	}
}

// TestPlaceJoinsInflightAutotune: a place arriving while an autotune of
// the same workload is sweeping on one device joins that flight instead
// of sweeping the device a second time.
func TestPlaceJoinsInflightAutotune(t *testing.T) {
	ref, refBody := onePlaceSweepJ(t)
	s := heterogeneousFleet(t, 2)
	h := s.Handler()
	started, release := gateFirstUnit(t, s)

	var auto, place *httptest.ResponseRecorder
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		auto = post(t, h, "/v1/autotune", sweepBody)
	}()
	waitStarted(t, started)
	go func() {
		defer wg.Done()
		place = post(t, h, "/v1/fleet/place", sweepBody)
	}()
	// As above, the pause only lets the place reach the held flight;
	// joining it or hitting its cached result count the same.
	time.Sleep(50 * time.Millisecond)
	release()
	wg.Wait()

	if auto.Code != http.StatusOK {
		t.Fatalf("autotune = %d: %s", auto.Code, auto.Body)
	}
	if place.Code != http.StatusOK || place.Body.String() != refBody {
		t.Fatalf("place = %d, want the reference body:\n got  %s\n want %s", place.Code, place.Body, refBody)
	}
	tuned := auto.Header().Get("X-Energyd-Device")
	for id, d := range deviceStats(t, h) {
		if d.SweepJ != ref[id].SweepJ {
			t.Errorf("device %s sweep_j = %g, want one sweep's %g", id, d.SweepJ, ref[id].SweepJ)
		}
		wantHits := uint64(0)
		if id == tuned {
			wantHits = 1
		}
		if d.CacheMisses != 1 || d.CacheHits != wantHits {
			t.Errorf("device %s cache misses/hits = %d/%d, want 1/%d", id, d.CacheMisses, d.CacheHits, wantHits)
		}
	}
}

// TestPlaceSurvivesJoinedPlacesDeadline: a place that joins the flights
// of another place, whose short deadline then ends them, still answers
// 200 with the reference body. The deadline that failed the joined
// flights was not its own, so it sweeps those devices itself.
func TestPlaceSurvivesJoinedPlacesDeadline(t *testing.T) {
	_, refBody := onePlaceSweepJ(t)
	s := heterogeneousFleet(t, 2)
	h := s.Handler()
	started, release := gateFirstUnit(t, s)
	shortBody := `{"profile": {"dp_fma": 2e8, "int": 1e8, "dram_words": 5e7}, "occupancy": 0.9, "timeout_s": 0.01}`

	var short, long *httptest.ResponseRecorder
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		short = post(t, h, "/v1/fleet/place", shortBody)
	}()
	waitStarted(t, started)
	go func() {
		defer wg.Done()
		long = post(t, h, "/v1/fleet/place", sweepBody)
	}()
	// The pause lets the second place join the held flights and the
	// first place's deadline pass while they are still open.
	time.Sleep(100 * time.Millisecond)
	release()
	wg.Wait()

	if short.Code != http.StatusGatewayTimeout {
		t.Errorf("place with timeout_s 0.01 = %d, want 504: %s", short.Code, short.Body)
	}
	if long.Code != http.StatusOK || long.Body.String() != refBody {
		t.Errorf("place joined to the expired one = %d, want the reference body:\n got  %s\n want %s", long.Code, long.Body, refBody)
	}
}

// TestPlaceSweepPanicReachesHandler: a device sweep that panics at
// Workers=1 panics the place handler's own goroutine, where net/http
// contains it, and leaves no flight or probe slot behind, so the next
// place answers normally.
func TestPlaceSweepPanicReachesHandler(t *testing.T) {
	_, refBody := onePlaceSweepJ(t)
	s := heterogeneousFleet(t, 1)
	h := s.Handler()
	n := s.Registry().Nodes()[0]
	n.Cfg.OnProgress = func(experiments.Progress) { panic("sweep blew up") }
	func() {
		defer func() {
			if recover() == nil {
				t.Error("place over a panicking sweep did not panic its handler")
			}
		}()
		post(t, h, "/v1/fleet/place", sweepBody)
	}()
	n.Cfg.OnProgress = nil
	if w := post(t, h, "/v1/fleet/place", sweepBody); w.Code != http.StatusOK || w.Body.String() != refBody {
		t.Errorf("place after the panic = %d, want the reference body:\n got  %s\n want %s", w.Code, w.Body, refBody)
	}
}

// TestPlaceProgressSerialized: a placement sweeps every device at once,
// but one OnProgress hook shared by all of them, with no locking of its
// own, still sees every unit exactly once (and no data race).
func TestPlaceProgressSerialized(t *testing.T) {
	s := heterogeneousFleet(t, 2)
	units, want := 0, 0
	for _, n := range s.Registry().Nodes() {
		n.Cfg.OnProgress = func(experiments.Progress) { units++ }
		want += len(n.Grids["calibration"])
	}
	if w := post(t, s.Handler(), "/v1/fleet/place", sweepBody); w.Code != http.StatusOK {
		t.Fatalf("place = %d: %s", w.Code, w.Body)
	}
	if units != want {
		t.Errorf("progress units = %d, want %d", units, want)
	}
}

// TestHugeSweepTimeoutGetsServerCap is the regression test for
// timeout_s values whose nanosecond count overflows a time.Duration:
// they used to become a negative, already-expired deadline and an
// immediate 504 on an uncached workload. They must get the server cap.
func TestHugeSweepTimeoutGetsServerCap(t *testing.T) {
	h := heterogeneousFleet(t, 2).Handler()
	for i, timeout := range []string{"1e10", "1e300"} {
		for j, path := range []string{"/v1/autotune", "/v1/fleet/place"} {
			// A distinct workload per request, so every one sweeps.
			body := `{"profile": {"sp": ` + string(rune('1'+2*i+j)) + `e8}, "occupancy": 0.5, "timeout_s": ` + timeout + `}`
			if w := post(t, h, path, body); w.Code != http.StatusOK {
				t.Errorf("%s with timeout_s %s = %d, want 200: %s", path, timeout, w.Code, w.Body)
			}
		}
	}
}

// TestSweepFailureReasonWorkerInvariant: under a fault plan that fails
// some settings, the first failure in grid order is the one reported,
// so autotune's 500 body and place's skip reasons are byte-identical at
// any worker count.
func TestSweepFailureReasonWorkerInvariant(t *testing.T) {
	plan := faults.Plan{Seed: 6, MeterDisconnect: 0.5}
	bodies := func(workers int) (string, string) {
		h := heterogeneousFleetCfg(t, experiments.Config{Seed: 42, Workers: workers, Faults: plan}, serve.Options{}).Handler()
		auto := post(t, h, "/v1/autotune", `{"profile": {"sp": 4e8}, "occupancy": 0.5, "grid": "full"}`)
		if auto.Code != http.StatusInternalServerError {
			t.Fatalf("full-grid autotune under faults = %d, want 500: %s", auto.Code, auto.Body)
		}
		place := post(t, h, "/v1/fleet/place", sweepBody)
		var resp serve.PlaceResponse
		if err := json.Unmarshal(place.Body.Bytes(), &resp); err != nil {
			t.Fatal(err)
		}
		if place.Code != http.StatusOK || len(resp.Skipped) == 0 || len(resp.Devices) == 0 {
			t.Fatalf("place under faults = %d with %d skipped, want 200 with some devices skipped and some placed: %s",
				place.Code, len(resp.Skipped), place.Body)
		}
		return auto.Body.String(), place.Body.String()
	}
	auto1, place1 := bodies(1)
	auto8, place8 := bodies(8)
	if auto1 != auto8 {
		t.Errorf("autotune failure depends on worker count:\n w=1 %s\n w=8 %s", auto1, auto8)
	}
	if place1 != place8 {
		t.Errorf("place skip reasons depend on worker count:\n w=1 %s\n w=8 %s", place1, place8)
	}
}
