package serve_test

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"dvfsroofline/internal/experiments"
	"dvfsroofline/internal/fleet"
	"dvfsroofline/internal/serve"
	"dvfsroofline/internal/tegra"
)

// statusPaths are the read-only views over the fleet's status and
// serving counters whose bytes the golden files pin.
var statusPaths = []string{"/metrics", "/v1/stats", "/v1/fleet/devices", "/readyz", "/healthz"}

// fixedClock stops request latencies at zero, so the latency histogram
// lines are deterministic.
func fixedClock() time.Time { return time.Unix(1700000000, 0) }

// scrapeStatus appends every status view of h to b: stage, path, status
// code, Content-Type and the full body.
func scrapeStatus(t *testing.T, h http.Handler, b *bytes.Buffer, stage string) {
	t.Helper()
	for _, path := range statusPaths {
		w := get(t, h, path)
		fmt.Fprintf(b, "=== %s: GET %s -> %d %s\n%s", stage, path, w.Code, w.Header().Get("Content-Type"), w.Body)
	}
}

// checkGolden compares got with testdata/name and reports the first
// differing line.
func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	want, err := os.ReadFile(filepath.Join("testdata", name))
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(got, want) {
		return
	}
	gl, wl := strings.Split(string(got), "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(gl) || i < len(wl); i++ {
		var g, w string
		if i < len(gl) {
			g = gl[i]
		}
		if i < len(wl) {
			w = wl[i]
		}
		if g != w {
			t.Fatalf("%s differs at line %d:\n got: %q\nwant: %q", name, i+1, g, w)
		}
	}
}

// TestStatusViewsGoldenSingleDevice pins the status views of a
// single-device server with a warmed cache, then a forced-open breaker
// and one degraded serve.
func TestStatusViewsGoldenSingleDevice(t *testing.T) {
	cal, err := serve.FixtureCalibration()
	if err != nil {
		t.Fatal(err)
	}
	s := serve.New(tegra.NewDevice(), cal, experiments.Config{Seed: 42}, serve.Options{Clock: fixedClock})
	h := s.Handler()
	var b bytes.Buffer
	scrapeStatus(t, h, &b, "boot")

	body := `{"profile": {"dp_fma": 2e8, "int": 1e8, "dram_words": 5e7}, "occupancy": 0.9}`
	for i := 0; i < 2; i++ {
		if w := post(t, h, "/v1/autotune", body); w.Code != http.StatusOK {
			t.Fatalf("autotune %d = %d: %s", i, w.Code, w.Body)
		}
	}
	if w := post(t, h, "/v1/predict", `{"profile": {"sp": 1e9}, "setting_id": "max", "time_s": 0.1}`); w.Code != http.StatusOK {
		t.Fatalf("predict = %d: %s", w.Code, w.Body)
	}
	scrapeStatus(t, h, &b, "warm")

	s.ForceBreakerOpen(true)
	w := post(t, h, "/v1/autotune", body)
	if w.Code != http.StatusOK || !strings.Contains(w.Body.String(), `"degraded": true`) {
		t.Fatalf("degraded autotune = %d: %s", w.Code, w.Body)
	}
	scrapeStatus(t, h, &b, "degraded")
	checkGolden(t, "status_single.golden", b.Bytes())
}

// TestStatusViewsGoldenFleet pins the status views of the 3-device
// fleet after an autotune miss and hit and a place, then after the
// autotune device is evicted (its labeled cache counters stay on
// /metrics, its /v1/stats row goes), then after an admin add whose
// calibration is held open (the calibration families skip it).
func TestStatusViewsGoldenFleet(t *testing.T) {
	release := make(chan struct{})
	held := func(string) (*experiments.Calibration, error) {
		<-release
		return nil, errors.New("calibration withheld by the test")
	}
	base := experiments.Config{Seed: 42, Workers: 2}
	s := heterogeneousFleetCfg(t, base, serve.Options{
		Clock: fixedClock,
		Admin: &fleet.Admin{FleetSeed: 42, Base: base, Load: held},
	})
	h := s.Handler()
	var b bytes.Buffer

	body := `{"profile": {"dp_fma": 2e8, "int": 1e8, "dram_words": 5e7}, "occupancy": 0.9}`
	var served string
	for i := 0; i < 2; i++ {
		w := post(t, h, "/v1/autotune", body)
		if w.Code != http.StatusOK {
			t.Fatalf("autotune %d = %d: %s", i, w.Code, w.Body)
		}
		served = w.Header().Get("X-Energyd-Device")
	}
	if w := post(t, h, "/v1/fleet/place", `{"profile": {"sp": 4e8, "l2_words": 3e7}, "occupancy": 0.5}`); w.Code != http.StatusOK {
		t.Fatalf("place = %d: %s", w.Code, w.Body)
	}
	scrapeStatus(t, h, &b, "served")

	if w := del(t, h, "/v1/fleet/devices/"+served+"?mode=evict"); w.Code != http.StatusOK {
		t.Fatalf("evict %s = %d: %s", served, w.Code, w.Body)
	}
	scrapeStatus(t, h, &b, "evicted")

	reg := s.Registry()
	defer func() {
		// The withheld calibration fails, and the device leaves again.
		close(release)
		for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(time.Millisecond) {
			if _, ok := reg.Get("tk1-joining"); !ok {
				return
			}
			if time.Now().After(deadline) {
				t.Fatal("held device never left the fleet")
			}
		}
	}()
	if w := post(t, h, "/v1/fleet/devices", `{"id": "tk1-joining", "calibration_cache": "held.csv"}`); w.Code != http.StatusAccepted {
		t.Fatalf("add = %d: %s", w.Code, w.Body)
	}
	scrapeStatus(t, h, &b, "calibrating")
	checkGolden(t, "status_fleet.golden", b.Bytes())
}

// stalledWriter is a ResponseWriter whose client stops reading: the
// first Write signals started and every Write blocks until release is
// closed.
type stalledWriter struct {
	header  http.Header
	once    sync.Once
	started chan struct{}
	release chan struct{}
}

func (w *stalledWriter) Header() http.Header { return w.header }
func (w *stalledWriter) WriteHeader(int)     {}
func (w *stalledWriter) Write(p []byte) (int, error) {
	w.once.Do(func() { close(w.started) })
	<-w.release
	return len(p), nil
}

// TestStalledScrapeDoesNotBlockTraffic holds a /metrics response in
// its first Write, as a scraper that stops reading does, and requires a
// concurrent predict to complete: no lock the request path needs may
// be held while a status view writes to its client.
func TestStalledScrapeDoesNotBlockTraffic(t *testing.T) {
	cal, err := serve.FixtureCalibration()
	if err != nil {
		t.Fatal(err)
	}
	h := serve.New(tegra.NewDevice(), cal, experiments.Config{Seed: 42}, serve.Options{}).Handler()
	sw := &stalledWriter{header: http.Header{}, started: make(chan struct{}), release: make(chan struct{})}
	scraped := make(chan struct{})
	go func() {
		defer close(scraped)
		h.ServeHTTP(sw, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	}()
	<-sw.started

	predicted := make(chan int, 1)
	go func() {
		w := httptest.NewRecorder()
		h.ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/v1/predict",
			strings.NewReader(`{"profile": {"sp": 1e9}, "setting_id": "max", "time_s": 0.1}`)))
		predicted <- w.Code
	}()
	select {
	case code := <-predicted:
		if code != http.StatusOK {
			t.Errorf("predict during stalled scrape = %d, want 200", code)
		}
	case <-time.After(5 * time.Second):
		t.Error("predict blocked behind a stalled /metrics scrape")
		close(sw.release)
		<-predicted
		<-scraped
		return
	}
	close(sw.release)
	<-scraped
}

// TestCalibrationSwapNeverTearsAnswers swaps a device's calibration
// back and forth while predicts and calibration reads run: every
// answer must come from one fit, never a mix of two.
func TestCalibrationSwapNeverTearsAnswers(t *testing.T) {
	calA, err := serve.FixtureCalibration()
	if err != nil {
		t.Fatal(err)
	}
	spec := fleet.Spec{ID: "other", Params: fleet.ParamsJSON{LeakProcWpV: 3.55, MiscW: 0.32, DRAMpJ: 318.5}}
	calB, err := fleet.SyntheticCalibration(fleet.DeclaredModel(spec.DeviceParams()))
	if err != nil {
		t.Fatal(err)
	}
	s := serve.New(tegra.NewDevice(), calA, experiments.Config{Seed: 42}, serve.Options{})
	h := s.Handler()
	node := s.Registry().Nodes()[0]
	refs := map[string]bool{}
	for _, cal := range []*experiments.Calibration{calB, calA} {
		node.SetCalibration(cal)
		refs[get(t, h, "/v1/calibration").Body.String()] = true
	}
	if len(refs) != 2 {
		t.Fatal("the two calibrations render identical bodies")
	}

	stop := make(chan struct{})
	swapped := make(chan struct{})
	go func() {
		defer close(swapped)
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			node.SetCalibration([]*experiments.Calibration{calA, calB}[i%2])
		}
	}()
	defer func() {
		close(stop)
		<-swapped
	}()

	const body = `{"profile": {"sp": 1e9, "dram_words": 2e8}, "setting_id": "S3", "time_s": 0.37}`
	for i := 0; i < 300; i++ {
		w := post(t, h, "/v1/predict", body)
		if w.Code != http.StatusOK {
			t.Fatalf("predict = %d: %s", w.Code, w.Body)
		}
		var resp struct {
			TimeS       float64 `json:"time_s"`
			ConstPowerW float64 `json:"const_power_w"`
			Parts       struct {
				Constant float64 `json:"constant"`
			} `json:"parts"`
		}
		if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
			t.Fatal(err)
		}
		if resp.Parts.Constant != resp.ConstPowerW*resp.TimeS {
			t.Fatalf("predict mixed two calibrations: parts.constant %v != const_power_w %v x time_s %v",
				resp.Parts.Constant, resp.ConstPowerW, resp.TimeS)
		}
		if got := get(t, h, "/v1/calibration").Body.String(); !refs[got] {
			t.Fatalf("/v1/calibration body matches neither calibration:\n%s", got)
		}
	}
}
