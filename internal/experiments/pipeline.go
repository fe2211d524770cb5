package experiments

import (
	"context"
	"runtime"
	"sync"
)

// This file is the experiment layer's concurrency substrate. Every
// pipelined experiment (Calibrate, Autotune, Figure5, RunFMMInputs,
// TuneQ) fans its independent units of work out over a bounded worker
// pool and writes results into pre-indexed slots, so the outcome is
// byte-identical for any worker count. Randomness stays deterministic
// because every unit derives its own seed from the unit's identity
// (stats.MixSeed, microbench.SampleSeed) rather than from a shared stream.

// Progress is one pipeline progress update.
type Progress struct {
	Stage string // e.g. "calibrate", "autotune", "fmm", "figure5", "tuneq"
	Done  int    // units completed so far
	Total int    // total units in this stage
}

// workers resolves the configured parallelism: zero or negative selects
// GOMAXPROCS.
func (c Config) workers() int {
	if c.Workers > 0 {
		return c.Workers
	}
	return runtime.GOMAXPROCS(0)
}

// progress invokes the OnProgress callback, if any. Callers serialize
// invocations.
func (c Config) progress(stage string, done, total int) {
	if c.OnProgress != nil {
		c.OnProgress(Progress{Stage: stage, Done: done, Total: total})
	}
}

// forEach runs n indexed tasks on a worker pool bounded by cfg.Workers.
// It honors ctx cancellation, stops scheduling new tasks after the first
// error, and reports completions through cfg.OnProgress (serialized).
// Tasks must be independent and write only to their own result slot;
// forEach guarantees every started task has returned before it does.
func forEach(ctx context.Context, cfg Config, stage string, n int, task func(i int) error) error {
	if n == 0 {
		return ctx.Err()
	}
	workers := cfg.workers()
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			if err := ctx.Err(); err != nil {
				return err
			}
			if err := task(i); err != nil {
				return err
			}
			cfg.progress(stage, i+1, n)
		}
		return nil
	}

	parent := ctx
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()

	var (
		wg       sync.WaitGroup
		mu       sync.Mutex // guards firstErr, done, and OnProgress calls
		firstErr error
		done     int
	)
	idx := make(chan int)
	go func() {
		defer close(idx)
		for i := 0; i < n; i++ {
			select {
			case idx <- i:
			case <-ctx.Done():
				return
			}
		}
	}()
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range idx {
				if ctx.Err() != nil {
					return
				}
				if err := task(i); err != nil {
					mu.Lock()
					if firstErr == nil {
						firstErr = err
						cancel()
					}
					mu.Unlock()
					return
				}
				mu.Lock()
				done++
				cfg.progress(stage, done, n)
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	if firstErr != nil {
		return firstErr
	}
	return parent.Err()
}
