package main

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"time"

	"dvfsroofline/internal/core"
	"dvfsroofline/internal/counters"
	"dvfsroofline/internal/experiments"
	"dvfsroofline/internal/fleet"
	"dvfsroofline/internal/serve"
	"dvfsroofline/internal/units"
)

// The executors send one workload's ops and check every answer. A check
// that needs the JSON document runs on the first occurrence of an
// answer; repeats are compared byte for byte against the verified
// bytes, so checking stays cheap next to the op it checks. Checks run
// outside the latency window, and their time and heap allocation are
// taken out of the reported metrics (see closedLoop and phase).

const deviceHeader = "X-Energyd-Device"

// holdoutBand is EXPERIMENTS.md's §II-D 2-fold holdout band: the
// paper's mean error ± one standard deviation (2.87 ± 2.47 %).
var holdoutBand = [2]float64{2.87 - 2.47, 2.87 + 2.47}

func newExecutor(w *workloadDef, sys *system, in *inputs, tr *tracer) executor {
	switch w.name {
	case "autotune":
		return &autotuneExec{sys: sys, in: in, tr: tr, warmRef: map[int][]byte{}, dev: map[int]string{}}
	case "place":
		return &placeExec{sys: sys, in: in, tr: tr}
	default:
		return &calibrateExec{sys: sys, in: in, tr: tr, recal: recalibrator(tr)}
	}
}

// profileOf maps the wire profile onto the counter profile the model
// evaluates.
func profileOf(p serve.ProfileJSON) counters.Profile {
	return counters.Profile{
		SP: float64(p.SP), DPFMA: float64(p.DPFMA), DPAdd: float64(p.DPAdd), DPMul: float64(p.DPMul),
		Int: float64(p.Int), SharedWords: float64(p.SharedWords), L1Words: float64(p.L1Words),
		L2Words: float64(p.L2Words), DRAMWords: float64(p.DRAMWords),
	}
}

func occupancy(o units.Ratio) units.Ratio {
	if o == 0 {
		return 0.25 // serve's default, the paper's FMM operating point
	}
	return o
}

// autotuneExec: POST /v1/autotune on the full grid, one cold op per
// block of four.
type autotuneExec struct {
	sys     *system
	in      *inputs
	tr      *tracer
	warmRef map[int][]byte // expected warm answer per recent cold workload
	dev     map[int]string
	resp    serve.AutotuneResponse // reused decode target
}

func (e *autotuneExec) send(c *client, i int) (time.Duration, bool) {
	e.tr.begin(i)
	o := e.in.opAt(i)
	lat := c.serveOp(e.sys.h, e.in, o)
	e.tr.end(o.warm)
	e.tr.served(i, c.w.hdr.Get(deviceHeader))
	return lat, c.w.code == http.StatusOK
}

func (e *autotuneExec) check(c *client, i int) bool {
	o := e.in.opAt(i)
	dev := c.w.hdr.Get(deviceHeader)
	if o.warm {
		// The benchmark's key history says this workload was swept
		// before: the answer must be the cached one.
		ref, ok := e.warmRef[o.cold]
		return ok && dev == e.dev[o.cold] && bytes.Equal(c.w.buf.Bytes(), ref)
	}
	node, ok := e.sys.reg.Get(dev)
	if !ok || json.Unmarshal(c.w.buf.Bytes(), &e.resp) != nil {
		return false
	}
	if r := &e.resp; r.Cached || r.Degraded || r.Grid != "full" || r.Candidates != len(node.Grids["full"]) {
		return false
	}
	// A warm repeat re-scores the cached sweep: the same bytes, flagged
	// cached.
	cold := []byte(`"cached": false`)
	if bytes.Count(c.w.buf.Bytes(), cold) != 1 {
		return false
	}
	e.warmRef[o.cold] = bytes.Replace(c.w.buf.Bytes(), cold, []byte(`"cached": true`), 1)
	e.dev[o.cold] = dev
	delete(e.warmRef, o.cold-coldHistory)
	delete(e.dev, o.cold-coldHistory)
	return true
}

// placeExec: POST /v1/fleet/place, a never-seen workload every op.
type placeExec struct {
	sys  *system
	in   *inputs
	tr   *tracer
	resp serve.PlaceResponse // reused decode target
}

func (e *placeExec) send(c *client, i int) (time.Duration, bool) {
	e.tr.begin(i)
	lat := c.serveOp(e.sys.h, e.in, e.in.opAt(i))
	e.tr.end(false)
	return lat, c.w.code == http.StatusOK
}

// check: every device swept (no skips, full calibration grid each) and
// the winner holds the fleet-minimum measured_min, ties to the first
// device in ID order.
func (e *placeExec) check(c *client, i int) bool {
	resp := &e.resp
	resp.Skipped = resp.Skipped[:0]
	if json.Unmarshal(c.w.buf.Bytes(), resp) != nil {
		return false
	}
	e.tr.served(i, resp.Winner)
	nodes := e.sys.reg.Nodes()
	if len(resp.Skipped) != 0 || len(resp.Devices) != len(nodes) {
		return false
	}
	best := 0
	for i, d := range resp.Devices {
		if d.DeviceID != nodes[i].ID || d.Candidates != len(nodes[i].Grids["calibration"]) {
			return false
		}
		if d.MeasuredMin.MeasuredJ < resp.Devices[best].MeasuredMin.MeasuredJ {
			best = i
		}
	}
	return resp.Winner == resp.Devices[best].DeviceID && resp.WinnerPick == resp.Devices[best].MeasuredMin
}

// recalibrator is the calibration seam. Untraced runs use
// fleet.DefaultRecalibrator itself; traced runs run the same campaign
// (experiments.Calibrate on the node's device and config) but keep the
// node config's OnProgress hook, which DefaultRecalibrator clears.
func recalibrator(tr *tracer) fleet.Recalibrator {
	if tr == nil {
		return fleet.DefaultRecalibrator
	}
	return func(ctx context.Context, n *fleet.Node) (*experiments.Calibration, error) {
		return experiments.Calibrate(ctx, n.Dev, n.Cfg)
	}
}

// calibrateExec: one full 1856-sample campaign on the reference node,
// swapped in with FinishRecalibration, then read back through
// GET /v1/calibration.
type calibrateExec struct {
	sys   *system
	in    *inputs
	tr    *tracer
	recal fleet.Recalibrator
	first *core.Model              // the first campaign's constants
	last  *experiments.Calibration // the campaign send just ran
}

func (e *calibrateExec) send(c *client, i int) (time.Duration, bool) {
	return e.campaign(c, i, true)
}

// campaign runs one recalibration of the reference node and lands it.
// With readback it also fetches GET /v1/calibration, left in c.w.
func (e *calibrateExec) campaign(c *client, i int, readback bool) (time.Duration, bool) {
	node, _ := e.sys.reg.Get(refDevice)
	e.tr.begin(i)
	start := time.Now()
	e.last = nil
	if node == nil || !node.BeginRecalibration() {
		e.tr.end(false)
		return time.Since(start), false
	}
	cal, err := e.recal(context.Background(), node)
	e.tr.recalibrated()
	node.FinishRecalibration(cal, err)
	if readback && err == nil {
		c.serveOp(e.sys.h, e.in, e.in.opAt(i))
	}
	lat := time.Since(start)
	e.tr.end(false)
	e.tr.served(i, refDevice)
	if err != nil {
		return lat, false
	}
	e.last = cal
	return lat, !readback || c.w.code == http.StatusOK
}

func (e *calibrateExec) check(c *client, _ int) bool {
	var r serve.CalibrationResponse
	if !e.verifyCampaign() || json.Unmarshal(c.w.buf.Bytes(), &r) != nil {
		return false
	}
	m := e.last.Model
	served := serve.ModelJSON{
		SPpJ: m.SPpJ, DPpJ: m.DPpJ, IntpJ: m.IntpJ, SMpJ: m.SMpJ, L2pJ: m.L2pJ, DRAMpJ: m.DRAMpJ,
		C1Proc: m.C1Proc, C1Mem: m.C1Mem, PMisc: m.PMisc,
	}
	return r.DeviceID == refDevice && r.Samples == len(e.last.Samples) && r.Model == served &&
		float64(r.Holdout.Mean) == e.last.Holdout.Percent().Mean
}

// verifyCampaign checks the last campaign: live on the node, constants
// bit-identical to the first campaign's, and holdout error inside the
// EXPERIMENTS.md band.
func (e *calibrateExec) verifyCampaign() bool {
	cal := e.last
	if node, ok := e.sys.reg.Get(refDevice); cal == nil || !ok || node.Cal() != cal {
		return false
	}
	if e.first == nil {
		e.first = cal.Model
	}
	h := cal.Holdout.Percent().Mean
	return *cal.Model == *e.first && h >= holdoutBand[0] && h <= holdoutBand[1]
}
