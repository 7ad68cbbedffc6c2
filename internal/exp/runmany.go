package exp

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/telemetry"
)

// PanicError is the error a panicking scenario run is converted into: one
// poisoned run must fail as a per-run error with its stack, not kill the
// whole figure sweep's process.
type PanicError struct {
	Scenario string
	Value    any
	Stack    []byte
}

func (e *PanicError) Error() string {
	return fmt.Sprintf("exp: scenario %q panicked: %v\n%s", e.Scenario, e.Value, e.Stack)
}

// runSafe executes Run under a panic guard.
func runSafe(s Scenario) (r *RunResult, err error) {
	defer func() {
		if p := recover(); p != nil {
			r = nil
			err = &PanicError{Scenario: s.Name, Value: p, Stack: debug.Stack()}
		}
	}()
	return Run(s)
}

// RunMany executes scenarios concurrently on a GOMAXPROCS-sized worker pool
// and returns results in input order. Every scenario builds its own network,
// event engine, and RNG (seeded from Scenario.Seed), so each result is
// bit-identical to what a sequential Run(jobs[i]) would produce; only
// wall-clock time changes. Workers pull indices from a shared counter, so
// uneven per-run cost does not idle them. A worker that panics surfaces a
// *PanicError for that scenario (after one retry, in case the panic was
// transient) instead of crashing the process. On error, the first failure in
// input order is returned and the results are discarded.
func RunMany(jobs []Scenario) ([]*RunResult, error) {
	results := make([]*RunResult, len(jobs))
	errs := make([]error, len(jobs))
	hub := Telemetry
	var completed atomic.Int64
	var sweepStart time.Time
	if hub.Enabled() {
		sweepStart = time.Now()
		hub.Event("exp", "sweep_start", 0, telemetry.I64("total", int64(len(jobs))))
	}
	run := func(i int) {
		r, err := runSafe(jobs[i])
		if _, panicked := err.(*PanicError); panicked {
			if hub.Enabled() {
				hub.Registry.Counter("exp_panic_retries_total", "scenario runs retried after a panic").Inc()
				hub.Event("exp", "panic_retry", 0, telemetry.Str("scenario", jobs[i].Name))
			}
			r, err = runSafe(jobs[i])
		}
		results[i], errs[i] = r, err
		if hub.Enabled() {
			done := completed.Add(1)
			elapsed := time.Since(sweepStart)
			// Linear extrapolation from the mean per-run wall time; coarse
			// but monotone, and only emitted on the instrumented path.
			eta := time.Duration(float64(elapsed) / float64(done) * float64(int64(len(jobs))-done))
			hub.Event("exp", "progress", 0,
				telemetry.I64("completed", done),
				telemetry.I64("total", int64(len(jobs))),
				telemetry.Dur("elapsed_ns", elapsed),
				telemetry.Dur("eta_ns", eta))
		}
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := min(runtime.GOMAXPROCS(0), len(jobs)); w > 0; w-- {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(jobs) {
					return
				}
				run(i)
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return results, nil
}
