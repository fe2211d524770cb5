package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"dvfsroofline/internal/experiments"
)

// The tracer records spans from outside the program, at seams it
// already exposes: the benchmark's own ResponseWriter (WriteHeader,
// Write), serve.Options.Clock (the instrument's first and last clock
// reads bracket every request), experiments.Config.OnProgress (one call
// per finished sweep or calibration unit) and the fleet.Recalibrator the
// calibrate op runs. Every span carries the op it belongs to and its
// parent; spans stay in memory and are written out when the run ends.

// span is one recorded interval. Parent indexes the run's span list
// (-1 for an op's root span); times are nanoseconds since the tracer
// started.
type span struct {
	Name   string `json:"name"`
	Op     int    `json:"op"`
	Parent int    `json:"parent"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// openOp collects one op's seam timestamps while it runs. Only the
// client writes it, or (for OnProgress) a sweep worker whose progress
// call the sweep's completion orders before the client reads it.
type openOp struct {
	id                     int
	record                 bool
	start, end             int64
	httpStart, httpEnd     int64
	inHTTP                 bool
	clock0, clock1         int64
	clocks                 int
	header, lastWrite      int64
	headerSet              bool
	bytes                  int
	units                  int
	httpUnit, campaignUnit int64 // last OnProgress unit inside / outside the HTTP call
	httpUnits              int
	recalEnd               int64
}

// opCounts are the exact per-op counts a traced run reports.
type opCounts struct {
	units  int
	bytes  int
	hit    bool
	device string
}

type tracer struct {
	epoch  time.Time
	first  int // ops [first, first+n) are recorded
	n      int
	cur    openOp
	spans  []span
	counts map[int]opCounts
}

func newTracer(first, n int) *tracer {
	return &tracer{epoch: time.Now(), first: first, n: n, counts: make(map[int]opCounts, n)}
}

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

// clock is the serve.Options.Clock seam.
func (t *tracer) clock() time.Time {
	now := time.Now()
	o := &t.cur
	ts := int64(now.Sub(t.epoch))
	if o.clocks == 0 {
		o.clock0 = ts
	}
	o.clock1 = ts
	o.clocks++
	return now
}

// progress is the experiments.Config.OnProgress seam.
func (t *tracer) progress(experiments.Progress) {
	o := &t.cur
	ts := t.now()
	o.units++
	if o.inHTTP {
		o.httpUnits++
		o.httpUnit = ts
	} else {
		o.campaignUnit = ts
	}
}

func (t *tracer) begin(id int) {
	if t == nil {
		return
	}
	t.cur = openOp{id: id, record: id < 0 || (id >= t.first && id < t.first+t.n), start: t.now()}
}

func (t *tracer) httpBegin() {
	if t == nil {
		return
	}
	o := &t.cur
	o.inHTTP = true
	o.clocks = 0
	o.headerSet = false
	o.httpStart = t.now()
}

func (t *tracer) httpEnd() {
	if t == nil {
		return
	}
	o := &t.cur
	o.httpEnd = t.now()
	o.inHTTP = false
}

func (t *tracer) wroteHeader() {
	if t == nil {
		return
	}
	o := &t.cur
	o.header = t.now()
	o.lastWrite = o.header
	o.headerSet = true
}

func (t *tracer) wrote(n int) {
	if t == nil {
		return
	}
	o := &t.cur
	o.lastWrite = t.now()
	o.bytes += n
}

// recalibrated marks the moment the recalibrator returned.
func (t *tracer) recalibrated() {
	if t == nil {
		return
	}
	t.cur.recalEnd = t.now()
}

// end closes the open op: it turns the seam timestamps into spans and
// files the op's counts. hit comes from the benchmark's key history.
func (t *tracer) end(hit bool) {
	if t == nil {
		return
	}
	o := &t.cur
	o.end = t.now()
	if !o.record {
		return
	}
	add := func(name string, parent int, start, end int64) int {
		t.spans = append(t.spans, span{Name: name, Op: o.id, Parent: parent, Start: start, End: end})
		return len(t.spans) - 1
	}
	root := add("op", -1, o.start, o.end)
	if o.recalEnd > 0 && o.campaignUnit > 0 {
		add("experiments.measure", root, o.start, o.campaignUnit)
		add("experiments.fit", root, o.campaignUnit, o.recalEnd)
	}
	if o.httpEnd > 0 {
		h := add("serve.http", root, o.httpStart, o.httpEnd)
		if o.clocks >= 2 && o.headerSet {
			in := add("serve.instrument", h, o.clock0, o.clock1)
			hd := add("serve.handle", in, o.clock0, o.header)
			if o.httpUnits > 0 {
				add("experiments.sweep", hd, o.clock0, o.httpUnit)
			}
			add("serve.encode", in, o.header, o.lastWrite)
		}
	}
	t.counts[o.id] = opCounts{units: o.units, bytes: o.bytes, hit: hit}
}

// served files the device that answered recorded op id: the
// X-Energyd-Device header, or a placement's winner.
func (t *tracer) served(id int, device string) {
	if t == nil {
		return
	}
	if c, ok := t.counts[id]; ok {
		c.device = device
		t.counts[id] = c
	}
}

// selfTimes returns each span's duration minus the part of it that its
// children cover (children of one span never overlap).
func selfTimes(spans []span) []int64 {
	self := make([]int64, len(spans))
	for i, s := range spans {
		self[i] += s.End - s.Start
		if s.Parent >= 0 {
			self[s.Parent] -= s.End - s.Start
		}
	}
	return self
}

// byName collects the durations (or self times) of the named spans, in
// the given unit.
func byName(spans []span, self []int64, name string, unit time.Duration) []float64 {
	var out []float64
	for i, s := range spans {
		if s.Name != name {
			continue
		}
		d := s.End - s.Start
		if self != nil {
			d = self[i]
		}
		out = append(out, float64(d)/float64(unit))
	}
	return out
}

// writeSpans writes one JSON span per line, with its self time.
func writeSpans(path string, spans []span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	self := selfTimes(spans)
	for i, s := range spans {
		if err := enc.Encode(struct {
			span
			Self int64 `json:"self_ns"`
		}{s, self[i]}); err != nil {
			f.Close()
			return fmt.Errorf("writing spans: %w", err)
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("writing spans: %w", err)
	}
	return f.Close()
}
