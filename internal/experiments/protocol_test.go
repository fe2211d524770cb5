package experiments

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash"
	"testing"
	"time"

	"dvfsroofline/internal/counters"
	"dvfsroofline/internal/dvfs"
	"dvfsroofline/internal/faults"
	"dvfsroofline/internal/tegra"
)

// protocolDigest is the SHA-256 of every measured value the
// measurement protocol produced when this test was written: sweep
// candidates and errors, a faulted calibration campaign and Table II.
// Any change to fault draws, DVFS gating, trace throttling, meter
// seeding, short-run repetition or the per-execution normalisation
// moves it. Regenerate it only for a deliberate change to the protocol,
// and say so in CHANGES.md.
const protocolDigest = "b1fc7d9778ec632649eb4d4c05fedb3fafa05f4439d30dc079b2e92f39fd3834"

// TestMeasurementProtocolPinned digests what the one measurement
// protocol produces for its three users — energyd's sweeps
// (SweepWorkload), calibration samples (Calibrate) and Table II points
// (Autotune) — under clean and faulted plans, on both serving grids,
// with a workload long enough for one execution and one so short it
// must repeat, at 1 and 8 workers.
func TestMeasurementProtocolPinned(t *testing.T) {
	h := sha256.New()
	digestSweeps(t, h)
	digestCalibration(t, h)
	if got := hex.EncodeToString(h.Sum(nil)); got != protocolDigest {
		t.Errorf("measurement protocol digest %s, want %s", got, protocolDigest)
	}
}

func digestSweeps(t *testing.T, h hash.Hash) {
	t.Helper()
	noSleep := faults.Retry{MaxAttempts: 2, Sleep: func(time.Duration) {}}
	plans := []struct {
		name string
		plan faults.Plan
	}{
		{"clean", faults.Plan{}},
		{"soak", soakPlan()},
		{"disconnect", faults.Plan{Seed: 17, MeterDisconnect: 0.5}},
		{"heavy", faults.Plan{Seed: 17, MeterDisconnect: 0.15, DVFSFailure: 0.1, Throttle: 0.3, MeterSpike: 0.1}},
	}
	workloads := []struct {
		name string
		w    tegra.Workload
	}{
		{"long", sweepWorkload()},
		{"short", tegra.Workload{
			Profile:   counters.Profile{DPFMA: 1e5, DRAMWords: 1e4, Int: 1e4},
			Occupancy: 0.9,
		}},
	}
	grids := []struct {
		name string
		grid []dvfs.Setting
	}{
		{"calibration", sweepGrid()},
		{"full", dvfs.Grid()},
	}
	dev := tegra.NewDevice()
	for _, p := range plans {
		for _, wl := range workloads {
			for _, g := range grids {
				for _, workers := range []int{1, 8} {
					cfg := Config{Seed: 42, Workers: workers, Faults: p.plan, Retry: noSleep}
					cands, err := SweepWorkload(context.Background(), dev, cfg, wl.w, g.grid)
					fmt.Fprintf(h, "sweep %s/%s/%s/%d err=%v\n", p.name, wl.name, g.name, workers, err)
					for _, c := range cands {
						fmt.Fprintf(h, "%v %v %v %v\n", c.Setting, c.Profile, c.Time, c.MeasuredEnergy)
					}
				}
			}
		}
	}
}

func digestCalibration(t *testing.T, h hash.Hash) {
	t.Helper()
	dev := tegra.NewDevice()
	cal, err := Calibrate(context.Background(), dev, soakConfig(0))
	if err != nil {
		t.Fatal(err)
	}
	for i, s := range cal.Samples {
		fmt.Fprintf(h, "sample %d %v %v %v %v %v\n", i, cal.Valid[i], s.Setting, s.Profile, s.Time, s.Energy)
	}
	fmt.Fprintf(h, "model %+v\n", *cal.Model)
	cov := cal.Coverage
	fmt.Fprintf(h, "coverage %d %d %d %d\n", cov.Total, cov.Measured, cov.Retried, cov.ScreenedOutliers)
	// Quarantine indices and attempt counts only: the final error's
	// wording belongs to the caller, not to the measured values.
	for _, q := range cov.Quarantined {
		fmt.Fprintf(h, "quarantined %d %d\n", q.Index, q.Attempts)
	}
	rows, err := Autotune(context.Background(), dev, cal.Model, testConfig())
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		fmt.Fprintf(h, "tableII %+v\n", r)
	}
}
