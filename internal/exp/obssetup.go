// Instrumentation wiring shared by the experiment binaries: one call
// registers the -telemetry/-trace-out/-debug-addr/-obs/-obs-window/
// -flight-dir flags, another builds the telemetry hub and the streaming
// observer from them, installs both on the harness, and mounts the live
// fairness surfaces on the debug server. See DESIGN.md "Streaming
// observability".
package exp

import (
	"flag"
	"fmt"
	"os"
	"time"

	"repro/internal/obs"
	"repro/internal/telemetry"
)

// Obs, when non-nil, attaches a constant-memory streaming fairness observer
// to every whole-run simulation (Run, RunHuge, RunMultiBottleneck and
// everything built on them): windowed Jain and rate/RTT percentile
// snapshots in virtual time, a per-shard flight recorder, and a compact
// StreamSummary on the result. Set it directly or via InstrumentFlags.
// Attaching obs never changes what a run computes — the digest-parity tests
// pin that.
var Obs *obs.Runtime

// InstrumentFlags holds the values of the shared instrumentation flags.
type InstrumentFlags struct {
	telemetry, obs      bool
	traceOut, debugAddr string
	obsWindow           time.Duration
	flightDir           string
}

// RegisterInstrumentFlags defines the shared instrumentation flags on fs.
func RegisterInstrumentFlags(fs *flag.FlagSet) *InstrumentFlags {
	f := &InstrumentFlags{}
	fs.BoolVar(&f.telemetry, "telemetry", false, "enable the telemetry hub (implied by -trace-out/-debug-addr)")
	fs.StringVar(&f.traceOut, "trace-out", "", `write JSONL spans/events to this path ("-" for stderr)`)
	fs.StringVar(&f.debugAddr, "debug-addr", "", "serve /metrics, /metrics.json, /debug/pprof, /debug/vars on this address")
	fs.BoolVar(&f.obs, "obs", false, "attach the streaming fairness observer (live /fairness on -debug-addr)")
	fs.DurationVar(&f.obsWindow, "obs-window", 500*time.Millisecond, "fairness snapshot cadence in virtual time")
	fs.StringVar(&f.flightDir, "flight-dir", "", "write flight-recorder JSONL dumps here on anomaly triggers (implies -obs)")
	return f
}

// Setup builds the telemetry hub from the parsed flags and installs it as
// Telemetry. When -obs or -flight-dir is set it also installs the streaming
// observer as Obs and mounts the live /fairness (JSON) and /fairness/stream
// (SSE) surfaces on the hub's debug server. The debug endpoint, if any, is
// announced on stderr. The caller must Close the hub before exiting so the
// trace buffer flushes.
func (f *InstrumentFlags) Setup() (*telemetry.Hub, error) {
	hub, err := telemetry.Setup(telemetry.Options{Enabled: f.telemetry, TraceOut: f.traceOut, DebugAddr: f.debugAddr})
	if err != nil {
		return nil, err
	}
	Telemetry = hub
	if f.obs || f.flightDir != "" {
		Obs = obs.New(obs.Options{Window: f.obsWindow, FlightDir: f.flightDir})
		if d := hub.Debug(); d != nil {
			d.Handle("/fairness", Obs.State())
			d.Handle("/fairness/stream", Obs.State().StreamHandler())
		}
	}
	if addr := hub.DebugAddr(); addr != "" {
		fmt.Fprintf(os.Stderr, "debug endpoint: http://%s/\n", addr)
	}
	return hub, nil
}
