package main

import (
	"fmt"
	"net/http"
	"runtime"
	"sort"
	"time"

	"dvfsroofline/internal/experiments"
	"dvfsroofline/internal/fleet"
	"dvfsroofline/internal/serve"
)

// fleetFile is energyd's 3-device test fleet; the benchmark serves it
// with the seed replaced by one derived from the workload seed.
const fleetFile = "cmd/energyd/testdata/fleet.json"

// system is one assembled daemon: registry, server and its handler.
type system struct {
	reg *fleet.Registry
	srv *serve.Server
	h   http.Handler
}

func loadFleet(seed int64) (fleet.FleetConfig, error) {
	fc, err := fleet.LoadConfig(fleetFile)
	if err != nil {
		return fleet.FleetConfig{}, fmt.Errorf("loading fleet (run from the repository root): %w", err)
	}
	fc.Seed = seed
	return fc, nil
}

// build is the step setup_s times: fleet.Build with three synthetic
// calibrations, then serve.NewFleet and Handler — what energyd -fleet
// does before it listens.
func build(fc fleet.FleetConfig, opts serve.Options) (*system, error) {
	reg, err := fleet.Build(fc, experiments.Config{}, nil, opts.NodeOptions())
	if err != nil {
		return nil, fmt.Errorf("building fleet: %w", err)
	}
	srv := serve.NewFleet(reg, opts)
	return &system{reg: reg, srv: srv, h: srv.Handler()}, nil
}

// tracedSystem builds the system with the tracer on its seams: the
// server clock, and every node's sweep progress hook.
func tracedSystem(fc fleet.FleetConfig, tr *tracer) (*system, error) {
	sys, err := build(fc, serve.Options{Clock: tr.clock})
	if err != nil {
		return nil, err
	}
	for _, n := range sys.reg.Nodes() {
		n.Cfg.OnProgress = tr.progress
	}
	return sys, nil
}

const (
	setupWarm = 2  // untimed builds first, so no timed build pays first-use costs
	setupReps = 31 // timed builds; setup_s is their median
)

// timedSetup builds the system setupWarm+setupReps times, each from a
// freshly collected heap, and returns the median build time and the
// last system, which the run then serves.
func timedSetup(fc fleet.FleetConfig) (float64, *system, error) {
	var sys *system
	var times []float64
	for i := 0; i < setupWarm+setupReps; i++ {
		sys = nil
		runtime.GC()
		start := time.Now()
		s, err := build(fc, serve.Options{})
		el := time.Since(start).Seconds()
		if err != nil {
			return 0, nil, err
		}
		sys = s
		if i >= setupWarm {
			times = append(times, el)
		}
	}
	return median(times), sys, nil
}

// median returns the middle value of xs (the mean of the two middle
// values for even lengths); xs is sorted in place.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	m := len(xs) / 2
	if len(xs)%2 == 1 {
		return xs[m]
	}
	return (xs[m-1] + xs[m]) / 2
}
