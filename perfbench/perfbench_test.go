package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"reflect"
	"runtime"
	"testing"

	"dvfsroofline/internal/serve"
)

// The tests run from the repository root, where the benchmark runs and
// where the fleet config lives.
func TestMain(m *testing.M) {
	if err := os.Chdir(".."); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	os.Exit(m.Run())
}

// opBytes serializes everything a run feeds the program.
func opBytes(in *inputs) []byte {
	var b bytes.Buffer
	fmt.Fprintf(&b, "fleet seed %d cycle %v %s %s\n", in.fleetSeed, in.cycle, in.method, in.path)
	for i := 0; i < in.n; i++ {
		o := in.opAt(i)
		fmt.Fprintf(&b, "warm=%v cold=%d %s\n", o.warm, o.cold, o.body)
	}
	return b.Bytes()
}

func TestSeedDeterminesInputs(t *testing.T) {
	for _, w := range workloads {
		a, err := generate(w, 7, 2000)
		if err != nil {
			t.Fatal(err)
		}
		b, err := generate(w, 7, 2000)
		if err != nil {
			t.Fatal(err)
		}
		c, err := generate(w, 8, 2000)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(opBytes(a), opBytes(b)) {
			t.Errorf("%s: seed 7 generated two different op sequences", w.name)
		}
		if bytes.Equal(opBytes(a), opBytes(c)) {
			t.Errorf("%s: seeds 7 and 8 generated the same inputs", w.name)
		}
	}
}

// Every autotune block holds exactly one never-seen workload, and every
// warm op repeats one of the last coldHistory cold ones sent before it.
func TestAutotuneLayout(t *testing.T) {
	w := lookup("autotune")
	in, err := generate(w, 3, 4000)
	if err != nil {
		t.Fatal(err)
	}
	if in.n != 4000 {
		t.Fatalf("%d ops, want 4000", in.n)
	}
	seen := map[string]bool{}
	issued := 0
	for i := 0; i < in.n; i++ {
		o := in.opAt(i)
		if i%w.block == 0 {
			cold := 0
			for j := i; j < i+w.block; j++ {
				if !in.opAt(j).warm {
					cold++
				}
			}
			if cold != 1 {
				t.Fatalf("block at op %d has %d cold ops", i, cold)
			}
		}
		if !o.warm {
			if seen[string(o.body)] || o.cold != issued {
				t.Fatalf("op %d: cold workload %d is not new", i, o.cold)
			}
			seen[string(o.body)] = true
			issued++
			continue
		}
		if o.cold >= issued || o.cold < issued-coldHistory {
			t.Fatalf("op %d repeats cold workload %d of %d issued", i, o.cold, issued)
		}
	}
}

// tracedPhase runs the traced phase of w, shrunk to warmup and traced
// ops, and returns its tracer.
func tracedPhase(t *testing.T, w workloadDef, seed int64) *tracer {
	t.Helper()
	in, err := generate(&w, seed, w.warmup+w.traced+w.block)
	if err != nil {
		t.Fatal(err)
	}
	fc, err := loadFleet(in.fleetSeed)
	if err != nil {
		t.Fatal(err)
	}
	tr := newTracer(w.warmup, w.traced)
	sys, err := tracedSystem(fc, tr)
	if err != nil {
		t.Fatal(err)
	}
	warm, meas := phase(&w, sys, in, tr, 0, w.traced)
	if warm.ok != warm.ops || meas.ok != meas.ops || meas.ops < w.traced {
		t.Fatalf("%s: warm-up %d/%d ok, measured %d/%d ok", w.name, warm.ok, warm.ops, meas.ok, meas.ops)
	}
	return tr
}

// small shrinks a workload for tests.
func small(name string) workloadDef {
	w := *lookup(name)
	switch name {
	case "autotune":
		w.warmup, w.traced = 40, 200
	case "place":
		w.warmup, w.traced = 4, 40
	case "calibrate":
		w.warmup, w.traced = 1, 2
	}
	return w
}

func TestCountsRepeat(t *testing.T) {
	for _, name := range []string{"autotune", "place", "calibrate"} {
		w := small(name)
		a := countMetrics(tracedPhase(t, w, 5))
		b := countMetrics(tracedPhase(t, w, 5))
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: counts differ between same-seed runs: %v vs %v", name, a, b)
		}
		if name == "autotune" && a["fleet.cache_hit_ratio"] != 0.75 {
			t.Errorf("autotune hit ratio %v, want exactly 0.75", a["fleet.cache_hit_ratio"])
		}
	}
}

// Spans nest: a child lies inside its parent and belongs to the same
// op, siblings do not overlap, and no self time is negative.
func TestSpansNest(t *testing.T) {
	for _, name := range []string{"autotune", "place", "calibrate"} {
		tr := tracedPhase(t, small(name), 9)
		spans := tr.spans
		if len(spans) == 0 {
			t.Fatalf("%s: no spans", name)
		}
		names := map[string]bool{}
		lastChild := map[int]int{}
		for i, s := range spans {
			names[s.Name] = true
			if s.End < s.Start {
				t.Fatalf("%s: span %d %s ends before it starts", name, i, s.Name)
			}
			if s.Parent < 0 {
				if s.Name != "op" {
					t.Fatalf("%s: root span %s", name, s.Name)
				}
				continue
			}
			p := spans[s.Parent]
			if p.Op != s.Op || s.Start < p.Start || s.End > p.End {
				t.Fatalf("%s: span %s [%d,%d] op %d not inside parent %s [%d,%d] op %d",
					name, s.Name, s.Start, s.End, s.Op, p.Name, p.Start, p.End, p.Op)
			}
			if prev, ok := lastChild[s.Parent]; ok && spans[prev].End > s.Start {
				t.Fatalf("%s: siblings %s and %s overlap", name, spans[prev].Name, s.Name)
			}
			lastChild[s.Parent] = i
		}
		for i, d := range selfTimes(spans) {
			if d < 0 {
				t.Fatalf("%s: span %d %s has negative self time %d", name, i, spans[i].Name, d)
			}
		}
		want := []string{"op", "serve.http", "serve.instrument", "serve.handle", "serve.encode"}
		switch name {
		case "autotune", "place":
			want = append(want, "experiments.sweep")
		case "calibrate":
			want = append(want, "experiments.measure", "experiments.fit")
		}
		for _, n := range want {
			if !names[n] {
				t.Errorf("%s: no %s span", name, n)
			}
		}
	}
}

// A run's reserve of ops lives off the Go heap: generating tens of
// thousands of placements leaves the live heap where it was.
func TestInputsOffHeap(t *testing.T) {
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	in, err := generate(lookup("place"), 4, 20000)
	if err != nil {
		t.Fatal(err)
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	if in.used < 4<<20 {
		t.Fatalf("only %d body bytes generated", in.used)
	}
	if grew := int64(after.HeapAlloc) - int64(before.HeapAlloc); grew > 1<<20 {
		t.Errorf("live heap grew by %d bytes holding %d bytes of bodies", grew, in.used)
	}
	runtime.KeepAlive(in)
}

// The warm-up measures what checking an answer allocates, and the
// reported allocation leaves it out.
func TestCheckAllocLeftOut(t *testing.T) {
	w := small("place")
	in, err := generate(&w, 2, w.warmup+w.traced)
	if err != nil {
		t.Fatal(err)
	}
	fc, err := loadFleet(in.fleetSeed)
	if err != nil {
		t.Fatal(err)
	}
	sys, err := build(fc, serve.Options{})
	if err != nil {
		t.Fatal(err)
	}
	warm, meas := phase(&w, sys, in, nil, 0, w.traced)
	if warm.checkAlloc[0] <= 0 || meas.checks[0] != meas.ops {
		t.Fatalf("check alloc %v over %d warm-up checks; %d checks of %d measured ops", warm.checkAlloc, warm.checks[0], meas.checks[0], meas.ops)
	}
	if got := programAlloc(warm, meas); got <= 0 || got >= float64(meas.alloc) {
		t.Errorf("program alloc %v of %d allocated in the loop", got, meas.alloc)
	}
	if meas.check <= 0 || meas.busy() >= meas.elapsed {
		t.Errorf("check time %v of %v elapsed", meas.check, meas.elapsed)
	}
}

// BENCHMARK.json and the program agree on every metric name and unit.
func TestMetricsMatchBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bench struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &bench); err != nil {
		t.Fatal(err)
	}
	for _, bw := range bench.Workloads {
		if lookup(bw.Name) == nil {
			t.Errorf("BENCHMARK.json declares workload %s, which the program does not have", bw.Name)
		}
	}
	if len(bench.PerLayer) != len(layerMetrics) {
		t.Errorf("BENCHMARK.json lists %d per-layer metrics, the program %d", len(bench.PerLayer), len(layerMetrics))
	}
	for i, m := range bench.PerLayer {
		if i < len(layerMetrics) && (m.Name != layerMetrics[i].name || m.Unit != layerMetrics[i].unit) {
			t.Errorf("per-layer %d: %s/%s in BENCHMARK.json, %s/%s in the program", i, m.Name, m.Unit, layerMetrics[i].name, layerMetrics[i].unit)
		}
	}
	w := small("place")
	res, _, err := runUntraced(&w, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Correct || len(res.Metrics) != len(bench.EndToEnd) {
		t.Fatalf("untraced run: correct=%v, %d metrics for %d declared", res.Correct, len(res.Metrics), len(bench.EndToEnd))
	}
	for _, m := range bench.EndToEnd {
		if got, ok := res.Metrics[m.Name]; !ok || got.Unit != m.Unit || got.Value <= 0 {
			t.Errorf("end-to-end %s: got %+v, want a positive value in %s", m.Name, got, m.Unit)
		}
	}
}
