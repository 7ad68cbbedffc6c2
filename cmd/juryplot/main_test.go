package main

import (
	"path/filepath"
	"testing"
	"time"

	"repro/internal/exp"
	"repro/internal/telemetry"
)

// TestTraceChartOneSeriesPerFlow captures a two-flow run's trace and
// requires the trace chart to carry every recorded series point of every
// flow, flow by flow.
func TestTraceChartOneSeriesPerFlow(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.jsonl")
	hub, err := telemetry.Setup(telemetry.Options{TraceOut: path})
	if err != nil {
		t.Fatal(err)
	}
	exp.Telemetry = hub
	res, err := exp.Run(exp.Scenario{
		Name:        "juryplot-trace",
		Rate:        20e6,
		OneWayDelay: 20 * time.Millisecond,
		BufferBytes: 64 * 1500,
		Flows:       []exp.FlowSpec{{Scheme: "cubic"}, {Scheme: "jury", Start: 500 * time.Millisecond}},
		Horizon:     3 * time.Second,
		Seed:        7,
	})
	exp.Telemetry = nil
	if cerr := hub.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		t.Fatal(err)
	}

	c, err := traceChart(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(c.Series) != len(res.Flows) {
		t.Fatalf("%d series, want one per flow (%d)", len(c.Series), len(res.Flows))
	}
	for _, f := range res.Flows {
		var got int
		for _, s := range c.Series {
			if s.Name == f.Name() {
				got = len(s.X)
			}
		}
		if want := len(f.Series()); want == 0 || got != want {
			t.Errorf("flow %s: %d trace points, want %d (its recorded series)", f.Name(), got, want)
		}
	}
}
