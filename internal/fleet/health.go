package fleet

import (
	"context"
	"sync"
	"time"

	"dvfsroofline/internal/counters"
	"dvfsroofline/internal/experiments"
	"dvfsroofline/internal/stats"
	"dvfsroofline/internal/tegra"
)

// The health loop turns persistent sweep failure into membership: a
// breaker keeps one device's own request path honest, but the ring
// keeps handing an open-breakered device fresh placements that can only
// be answered degraded. After QuarantineAfter consecutive ticks with
// the breaker open, the device leaves the ring (quarantined), and a
// probe schedule with deterministic exponential backoff brings it back:
// a real measured probe sweep on the device itself — the faults-aware
// path — so recovery is observed, not assumed. The backoff jitter
// derives from MixSeed(seed, hash(id), attempt): fully reproducible,
// so chaos soaks replay byte-identically, yet de-synchronized across
// devices so a correlated outage doesn't produce a thundering probe
// herd.

// HealthConfig tunes quarantine and probing; zero fields select the
// documented defaults.
type HealthConfig struct {
	// QuarantineAfter is how many consecutive health ticks must observe
	// the device's breaker open before it is quarantined; zero selects 2.
	QuarantineAfter int
	// ProbeBackoff is the base wait before the first recovery probe;
	// zero selects 30 s. Each failed probe doubles it.
	ProbeBackoff time.Duration
	// ProbeBackoffMax caps the doubling; zero selects 16x the base.
	ProbeBackoffMax time.Duration
	// Seed anchors the probe-jitter lineage (normally the fleet seed).
	Seed int64
}

func (c HealthConfig) quarantineAfter() int {
	if c.QuarantineAfter <= 0 {
		return 2
	}
	return c.QuarantineAfter
}

func (c HealthConfig) probeBackoff() time.Duration {
	if c.ProbeBackoff <= 0 {
		return 30 * time.Second
	}
	return c.ProbeBackoff
}

func (c HealthConfig) probeBackoffMax() time.Duration {
	if c.ProbeBackoffMax > 0 {
		return c.ProbeBackoffMax
	}
	return 16 * c.probeBackoff()
}

// ProbeFunc checks one device end to end; nil selects DefaultProbe.
type ProbeFunc func(ctx context.Context, n *Node) error

// Health drives quarantine and recovery for one registry. It is
// pull-driven: the owner calls Tick with the current time (a wall
// ticker in cmd/energyd, a step clock in soaks), and each tick observes
// breaker states, quarantines repeat offenders, and runs due probes
// synchronously. One goroutine calls Tick at a time.
type Health struct {
	reg   *Registry
	cfg   HealthConfig
	probe ProbeFunc

	mu   sync.Mutex
	devs map[string]*deviceHealth // guarded by mu
}

// deviceHealth is the loop's per-device bookkeeping.
type deviceHealth struct {
	openTicks int       // consecutive ticks with the breaker open
	attempt   int       // failed probes this quarantine spell
	nextProbe time.Time // when the next probe is due
}

// NewHealth builds the health loop over a registry.
func NewHealth(reg *Registry, cfg HealthConfig, probe ProbeFunc) *Health {
	if probe == nil {
		probe = DefaultProbe
	}
	return &Health{reg: reg, cfg: cfg, probe: probe, devs: make(map[string]*deviceHealth)}
}

// Tick runs one health pass at the given time: active devices with open
// breakers accumulate toward quarantine, quarantined devices whose
// backoff elapsed are probed, and probe outcomes move them back to
// active or deeper into backoff. Probes run synchronously on the
// calling goroutine.
func (h *Health) Tick(ctx context.Context, now time.Time) {
	for _, n := range h.reg.Nodes() {
		select {
		case <-ctx.Done():
			return
		default:
		}
		switch n.State() {
		case StateActive:
			h.tickActive(n, now)
		case StateQuarantined:
			h.tickQuarantined(ctx, n, now)
		default:
			// Draining, drained, calibrating and probing devices are
			// either leaving anyway or already owned by another actor.
		}
	}
	h.forget()
}

// tickActive counts consecutive open-breaker observations and
// quarantines at the threshold.
func (h *Health) tickActive(n *Node, now time.Time) {
	d := h.dev(n.ID)
	if state, _ := n.Breaker.Snapshot(); state != BreakerOpen {
		d.openTicks = 0
		return
	}
	d.openTicks++
	if d.openTicks < h.cfg.quarantineAfter() {
		return
	}
	if err := h.reg.SetState(n.ID, StateQuarantined); err != nil {
		return // lost a race with drain/evict; forget() cleans up
	}
	d.openTicks = 0
	d.attempt = 0
	d.nextProbe = now.Add(h.backoff(n.ID, 0))
}

// tickQuarantined runs a due probe and lands its outcome.
func (h *Health) tickQuarantined(ctx context.Context, n *Node, now time.Time) {
	d := h.dev(n.ID)
	if now.Before(d.nextProbe) {
		return
	}
	if err := h.reg.SetState(n.ID, StateProbing); err != nil {
		return
	}
	if err := h.probe(ctx, n); err != nil {
		d.attempt++
		if h.reg.SetState(n.ID, StateQuarantined) == nil {
			d.nextProbe = now.Add(h.backoff(n.ID, d.attempt))
		}
		return
	}
	// The device answered a real measured sweep: reclose its breaker so
	// the ring hands it fresh work immediately, not after a cooldown
	// that was measuring a failure mode that no longer exists.
	n.Breaker.Success()
	if h.reg.SetState(n.ID, StateActive) == nil {
		d.openTicks, d.attempt = 0, 0
	}
}

// backoff returns the wait before probe number attempt of a quarantine
// spell: base<<attempt capped at the max, plus up to 25% deterministic
// jitter drawn from the (seed, device, attempt) identity — stable
// across replays, uncorrelated across devices.
func (h *Health) backoff(id string, attempt int) time.Duration {
	base, maxB := h.cfg.probeBackoff(), h.cfg.probeBackoffMax()
	d := base
	for i := 0; i < attempt && d < maxB; i++ {
		d *= 2
	}
	if d > maxB {
		d = maxB
	}
	rng := stats.NewRNG(stats.MixSeed(h.cfg.Seed, int64(hashKey(id)), int64(attempt)))
	return d + time.Duration(rng.Float64()*float64(d)/4)
}

// dev returns the bookkeeping entry for id, creating it on first sight.
// Single-ticker discipline makes the lock nearly free; it exists so
// Snapshot-style future readers stay safe.
func (h *Health) dev(id string) *deviceHealth {
	h.mu.Lock()
	defer h.mu.Unlock()
	d, ok := h.devs[id]
	if !ok {
		d = &deviceHealth{}
		h.devs[id] = d
	}
	return d
}

// forget drops bookkeeping for devices that left the registry.
func (h *Health) forget() {
	h.mu.Lock()
	defer h.mu.Unlock()
	for id := range h.devs {
		if _, ok := h.reg.Get(id); !ok {
			delete(h.devs, id)
		}
	}
}

// DefaultProbe runs one real measured sweep point on the device — a
// tiny fixed workload at the first calibration-grid setting, through
// the same faults-aware measurement path as serving sweeps — so a
// device only rejoins the ring after demonstrating it can answer.
func DefaultProbe(ctx context.Context, n *Node) error {
	grid := n.Grids["calibration"]
	if len(grid) == 0 {
		grid = n.Grids["full"]
	}
	if len(grid) == 0 {
		return nil
	}
	w := tegra.Workload{
		Profile:   counters.Profile{SP: 1e8, Int: 5e7, DRAMWords: 2e7},
		Occupancy: 0.5,
	}
	_, err := experiments.SweepWorkload(ctx, n.Dev, n.sweepConfig(), w, grid[:1])
	return err
}
