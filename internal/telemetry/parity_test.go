package telemetry_test

import (
	"io"
	"testing"
	"time"

	"repro/internal/exp"
	"repro/internal/telemetry"
)

// parityScenario is a checked multi-scheme dumbbell: long enough for drops,
// interval stats, and Jury decision-guard counters to all fire.
func parityScenario() exp.Scenario {
	return exp.Scenario{
		Name:        "telemetry-parity",
		Rate:        20e6,
		OneWayDelay: 20 * time.Millisecond,
		BufferBytes: 64 * 1500,
		Flows: []exp.FlowSpec{
			{Scheme: "cubic"},
			{Scheme: "jury", Start: 500 * time.Millisecond},
		},
		Horizon: 3 * time.Second,
		Seed:    7,
		Check:   true,
	}
}

// TestTelemetryDigestParity pins the determinism contract of the telemetry
// layer: attaching the full observer stack (metrics, tracer, jury exports)
// must leave a checked run's event-stream digest bit-identical, because
// telemetry only observes — it never draws randomness or schedules events.
func TestTelemetryDigestParity(t *testing.T) {
	if exp.Telemetry != nil {
		t.Fatal("test requires the package-level hub to start nil")
	}
	base, err := exp.Run(parityScenario())
	if err != nil {
		t.Fatal(err)
	}
	if !base.Checked || base.Digest == 0 {
		t.Fatalf("baseline run not checked (checked=%v digest=%#x)", base.Checked, base.Digest)
	}

	hub := &telemetry.Hub{
		Registry: telemetry.NewRegistry(),
		Tracer:   telemetry.NewTracer(telemetry.NewSink(io.Discard)),
	}
	exp.Telemetry = hub
	defer func() { exp.Telemetry = nil }()
	instr, err := exp.Run(parityScenario())
	if err != nil {
		t.Fatal(err)
	}
	if instr.Digest != base.Digest {
		t.Fatalf("telemetry perturbed the simulation: digest %#016x (instrumented) != %#016x (bare)",
			instr.Digest, base.Digest)
	}

	// The observer must actually have seen the run.
	r := hub.Registry
	if r.Counter("sim_packets_sent_total", "").Value() == 0 {
		t.Error("sim_packets_sent_total stayed 0 under an instrumented run")
	}
	if r.Counter("exp_runs_finished_total", "").Value() != 1 {
		t.Errorf("exp_runs_finished_total = %d, want 1", r.Counter("exp_runs_finished_total", "").Value())
	}
}

// TestRunManyInstrumented: the sweep path emits progress and keeps results
// identical to bare runs.
func TestRunManyInstrumented(t *testing.T) {
	jobs := []exp.Scenario{parityScenario(), parityScenario()}
	jobs[1].Seed = 11
	jobs[1].Name = "telemetry-parity-b"

	bare, err := exp.RunMany(jobs)
	if err != nil {
		t.Fatal(err)
	}

	hub := &telemetry.Hub{
		Registry: telemetry.NewRegistry(),
		Tracer:   telemetry.NewTracer(telemetry.NewSink(io.Discard)),
	}
	exp.Telemetry = hub
	defer func() { exp.Telemetry = nil }()
	instr, err := exp.RunMany(jobs)
	if err != nil {
		t.Fatal(err)
	}
	for i := range jobs {
		if bare[i].Digest != instr[i].Digest {
			t.Errorf("job %d digest mismatch: %#x != %#x", i, instr[i].Digest, bare[i].Digest)
		}
	}
	if got := hub.Registry.Counter("exp_runs_finished_total", "").Value(); got != 2 {
		t.Errorf("exp_runs_finished_total = %d, want 2", got)
	}
}
