package cli

import (
	"context"
	"errors"
	"fmt"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"testing"

	"dvfsroofline/internal/core"
	"dvfsroofline/internal/experiments"
	"dvfsroofline/internal/tegra"
)

// modelsClose compares fitted constants with a tolerance covering the
// CSV round trip: samples are serialized at 12 significant digits, so a
// refit must agree to far better than 1e-6 relative.
func modelsClose(t *testing.T, got, want *core.Model) {
	t.Helper()
	pairs := []struct {
		name      string
		got, want float64
	}{
		{"SPpJ", float64(got.SPpJ), float64(want.SPpJ)}, {"DPpJ", float64(got.DPpJ), float64(want.DPpJ)},
		{"IntpJ", float64(got.IntpJ), float64(want.IntpJ)}, {"SMpJ", float64(got.SMpJ), float64(want.SMpJ)},
		{"L2pJ", float64(got.L2pJ), float64(want.L2pJ)}, {"DRAMpJ", float64(got.DRAMpJ), float64(want.DRAMpJ)},
		{"C1Proc", float64(got.C1Proc), float64(want.C1Proc)}, {"C1Mem", float64(got.C1Mem), float64(want.C1Mem)},
		{"PMisc", float64(got.PMisc), float64(want.PMisc)},
	}
	for _, p := range pairs {
		if diff := math.Abs(p.got - p.want); diff > 1e-6*(1+math.Abs(p.want)) {
			t.Errorf("%s = %v, want %v (diff %g)", p.name, p.got, p.want, diff)
		}
	}
}

func testCfg() experiments.Config {
	return experiments.Config{Seed: 42, BenchTargetTime: 0.1}
}

func TestSaveLoadCalibrationRoundTrip(t *testing.T) {
	dev := tegra.NewDevice()
	cal, err := experiments.Calibrate(context.Background(), dev, testCfg())
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "samples.csv")
	if err := SaveSamples(path, cal.Samples); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadCalibration(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(loaded.Samples) != len(cal.Samples) {
		t.Fatalf("loaded %d samples, want %d", len(loaded.Samples), len(cal.Samples))
	}
	modelsClose(t, loaded.Model, cal.Model)
	// Validation statistics must survive the round trip as well.
	if d := math.Abs(loaded.Holdout.Summary.Mean - cal.Holdout.Summary.Mean); d > 1e-9 {
		t.Errorf("holdout mean drifted by %g across the cache round trip", d)
	}
	if d := math.Abs(loaded.KFold.Summary.Mean - cal.KFold.Summary.Mean); d > 1e-9 {
		t.Errorf("16-fold mean drifted by %g across the cache round trip", d)
	}
}

func TestLoadCalibrationMissingFile(t *testing.T) {
	_, err := LoadCalibration(filepath.Join(t.TempDir(), "absent.csv"))
	if !errors.Is(err, fs.ErrNotExist) {
		t.Errorf("got %v, want a does-not-exist error", err)
	}
	// Calibrate distinguishes "no cache yet" from "malformed cache" with
	// errors.Is, which must keep working even if the path error is
	// wrapped along the way (os.IsNotExist would not).
	if wrapped := fmt.Errorf("loading cache: %w", err); !errors.Is(wrapped, fs.ErrNotExist) {
		t.Errorf("wrapped error %v lost the not-exist sentinel", wrapped)
	}
}

func TestLoadCalibrationMalformed(t *testing.T) {
	path := filepath.Join(t.TempDir(), "garbage.csv")
	if err := os.WriteFile(path, []byte("this,is,not\na,sample,file\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	_, err := LoadCalibration(path)
	if err == nil {
		t.Fatal("malformed cache accepted")
	}
	if os.IsNotExist(err) {
		t.Error("malformed cache misreported as missing")
	}
}

// TestAppCalibrateCachePopulatesAndReuses drives App.Calibrate the way
// the cmd/* binaries do: the first call measures and writes the cache,
// the second loads it and must agree with the fresh fit.
func TestAppCalibrateCachePopulatesAndReuses(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cache.csv")
	app := &App{Name: "test", Seed: 42, Cache: path, lastPct: -1}
	dev := tegra.NewDevice()

	fresh, err := app.Calibrate(context.Background(), dev)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(path); err != nil {
		t.Fatalf("cache not written: %v", err)
	}
	cached, err := app.Calibrate(context.Background(), dev)
	if err != nil {
		t.Fatal(err)
	}
	modelsClose(t, cached.Model, fresh.Model)
}

func TestAppValidate(t *testing.T) {
	valid := func() *App {
		return &App{Name: "test", Seed: 42, Workers: 0, MinCoverage: 1.0}
	}
	if err := valid().Validate(); err != nil {
		t.Fatalf("default flags rejected: %v", err)
	}

	cases := []struct {
		name   string
		mutate func(*App)
	}{
		{"negative workers", func(a *App) { a.Workers = -1 }},
		{"zero seed", func(a *App) { a.Seed = 0 }},
		{"negative seed", func(a *App) { a.Seed = -7 }},
		{"zero coverage", func(a *App) { a.MinCoverage = 0 }},
		{"coverage above one", func(a *App) { a.MinCoverage = 1.01 }},
		{"NaN coverage", func(a *App) { a.MinCoverage = math.NaN() }},
		{"infinite coverage", func(a *App) { a.MinCoverage = math.Inf(1) }},
		{"NaN fault probability", func(a *App) { a.FaultSpec = "disconnect=NaN" }},
		{"NaN spike factor", func(a *App) { a.FaultSpec = "spike=1,spike-factor=NaN" }},
		{"infinite fault probability", func(a *App) { a.FaultSpec = "dvfs=inf" }},
		{"bad fault spec", func(a *App) { a.FaultSpec = "dropout=nope" }},
		{"out-of-range fault", func(a *App) { a.FaultSpec = "spike=2" }},
	}
	for _, c := range cases {
		a := valid()
		c.mutate(a)
		if err := a.Validate(); err == nil {
			t.Errorf("%s: Validate accepted %+v", c.name, a)
		}
	}
}

func TestAppConfigCarriesFaultPlan(t *testing.T) {
	a := &App{Name: "test", Seed: 42, MinCoverage: 0.95, FaultSpec: "disconnect=0.1,seed=3"}
	if err := a.Validate(); err != nil {
		t.Fatal(err)
	}
	cfg := a.Config()
	if cfg.MinCoverage != 0.95 {
		t.Errorf("MinCoverage = %g, want 0.95", cfg.MinCoverage)
	}
	if cfg.Faults.MeterDisconnect != 0.1 || cfg.Faults.Seed != 3 {
		t.Errorf("fault plan not threaded through: %+v", cfg.Faults)
	}
}
