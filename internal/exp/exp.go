// Package exp is the experiment harness: it maps every table and figure of
// the paper's evaluation (§5) to a runnable experiment over the emulator,
// with typed result rows. Each experiment accepts an options struct whose
// zero value reproduces a scaled-down but shape-faithful version of the
// paper's setup (this repository runs on a single CPU, whereas the paper
// used a testbed; see DESIGN.md); crank the fields up for full scale.
package exp

import (
	"fmt"
	"os"
	"time"

	"repro/internal/cc"
	"repro/internal/cc/astraea"
	"repro/internal/cc/aurora"
	"repro/internal/cc/bbr"
	"repro/internal/cc/copa"
	"repro/internal/cc/cubic"
	"repro/internal/cc/orca"
	"repro/internal/cc/remy"
	"repro/internal/cc/reno"
	"repro/internal/cc/vegas"
	"repro/internal/cc/vivace"
	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/metrics"
	"repro/internal/netsim"
	"repro/internal/obs"
	"repro/internal/runstore"
	"repro/internal/simcheck"
	"repro/internal/telemetry"
	"repro/internal/traces"
)

// Telemetry, when set to a live hub by a binary's -telemetry/-trace-out/
// -debug-addr flags, instruments every whole-run simulation (Run, RunHuge,
// RunMultiBottleneck and everything built on them): run lifecycle counters
// and spans, plus the sim-domain totals and sample events reportSim takes
// from each finished network. A nil hub (the default) keeps the harness on
// its uninstrumented fast path — one nil check and nothing else.
var Telemetry *telemetry.Hub

// DefaultShards is the shard count scenarios with Shards == 0 run at. The
// binaries' -shards flag sets it; 1 (the default) is plain sequential
// execution, so existing goldens and scripts are untouched unless a caller
// opts in.
var DefaultShards = 1

// ForceCheck attaches a simcheck invariant checker to every whole-run
// simulation, regardless of Scenario.Check or HugeOptions.Check. It is
// initialized from the JURY_SIMCHECK environment variable so production
// figure runs can be audited without code changes (see EXPERIMENTS.md), and
// the experiment package's own tests turn it on in TestMain so the whole
// short suite runs under the invariant checker.
var ForceCheck = os.Getenv("JURY_SIMCHECK") != ""

// Schemes lists every congestion-control scheme the harness can run.
var Schemes = []string{
	"jury", "astraea", "orca", "aurora", "vivace",
	"bbr", "cubic", "vegas", "reno", "copa", "remy",
}

// Fig6Schemes is the baseline set of the fairness comparison (Fig. 6).
var Fig6Schemes = []string{"jury", "astraea", "orca", "aurora", "vivace", "bbr", "cubic", "vegas"}

// NewScheme constructs a controller by name. Each flow gets its own seed so
// stochastic components (exploration, probing order) are independent.
func NewScheme(name string, seed uint64) (cc.Algorithm, error) {
	switch name {
	case "jury":
		return core.NewDefault(seed), nil
	case "astraea":
		cfg := astraea.DefaultConfig()
		cfg.Seed = seed
		return astraea.New(cfg, nil), nil
	case "orca":
		cfg := orca.DefaultConfig()
		cfg.Seed = seed
		return orca.New(cfg, nil), nil
	case "aurora":
		cfg := aurora.DefaultConfig()
		cfg.Seed = seed
		return aurora.New(cfg, nil), nil
	case "vivace":
		return vivace.New(seed), nil
	case "bbr":
		return bbr.New(), nil
	case "cubic":
		return cubic.New(), nil
	case "vegas":
		return vegas.New(), nil
	case "reno":
		return reno.New(), nil
	case "copa":
		return copa.New(), nil
	case "remy":
		return remy.New(nil), nil
	default:
		return nil, fmt.Errorf("exp: unknown scheme %q", name)
	}
}

// FlowSpec describes one flow of a scenario.
type FlowSpec struct {
	Scheme      string
	Start       time.Duration
	Duration    time.Duration // 0 = until horizon
	ExtraOneWay time.Duration
	// CC, if non-nil, overrides Scheme with a custom controller factory
	// (Scheme then only labels the flow); it receives the seed Run derives
	// for the flow. Table 3, the ablations and `jurytrain -eval` use it to
	// keep their own controller seeds and policies; a scenario with a CC
	// factory is never cached in the run store.
	CC func(seed uint64) cc.Algorithm
}

// Scenario is a single-bottleneck dumbbell setup.
type Scenario struct {
	Name        string
	Rate        float64      // bits/second (ignored if Trace set)
	Trace       traces.Trace // optional time-varying capacity
	OneWayDelay time.Duration
	BufferBytes int
	LossRate    float64
	PacketSize  int // 0 = default MSS; raise for ≥1 Gbps runs
	// Faults attaches deterministic fault processes (burst loss, reordering,
	// duplication, jitter spikes, blackouts) to the bottleneck link. See
	// internal/faults and the robustness experiments.
	Faults  *faults.Config
	Flows   []FlowSpec
	Horizon time.Duration
	Seed    uint64
	// Check attaches a simcheck invariant checker to the run; Run fails if
	// any invariant is violated. Overridden to true globally by ForceCheck.
	Check bool
	// Shards caps the shard count for space-parallel execution (see
	// netsim.Network.RunSharded). 0 means DefaultShards; 1 runs sequentially.
	// A single-bottleneck dumbbell always partitions into one shard, so the
	// setting only changes execution — never results — for the scenarios this
	// struct describes; multi-link topologies (RunHuge) are where extra
	// shards buy wall-clock time.
	Shards int
}

// BufferBDP returns the byte size of n bandwidth-delay products for the
// scenario's rate and round-trip time.
func (s Scenario) BufferBDP(n float64) int {
	return int(n * s.Rate / 8 * (2 * s.OneWayDelay).Seconds())
}

// FlowSummary is the serializable read-only view of one flow of a run:
// everything the figure and table consumers read, detached from the live
// simulator objects so a result loaded from the run store (internal/
// runstore) is indistinguishable from a fresh one. It satisfies
// metrics.FlowSeries.
type FlowSummary struct {
	name        string
	baseRTT     time.Duration
	stats       netsim.FlowStats
	series      []netsim.SeriesPoint
	degraded    int64
	nonFinite   int64
	lateMeanBps float64
}

// Name returns the flow's label.
func (f *FlowSummary) Name() string { return f.name }

// BaseRTT returns the flow's propagation round-trip floor.
func (f *FlowSummary) BaseRTT() time.Duration { return f.baseRTT }

// Stats returns the flow's lifetime counters.
func (f *FlowSummary) Stats() netsim.FlowStats { return f.stats }

// Series returns the recorded per-interval samples.
func (f *FlowSummary) Series() []netsim.SeriesPoint { return f.series }

// JuryCounters returns the Jury decision-guard counters (degraded
// AIMD-fallback decisions, non-finite actions that reached Eq. 7); both are
// zero for non-Jury schemes.
func (f *FlowSummary) JuryCounters() (degraded, nonFinite int64) {
	return f.degraded, f.nonFinite
}

// LateMeanBps returns the flow's mean throughput over the late window
// [Horizon/3, Horizon], precomputed by summarize so fairness shares survive
// a compact record whose Series was dropped (see StoreCompact).
func (f *FlowSummary) LateMeanBps() float64 { return f.lateMeanBps }

// LinkSummary carries the bottleneck-link counters a stored run preserves.
type LinkSummary struct {
	FaultDrops int64
	Reordered  int64
	Duplicated int64
}

// RunResult holds everything the figure runners need from one simulation.
// FlowSummaries and LinkSummary are always populated; Flows and Link are
// the live simulator objects and are nil when the result was served from
// the run store (Cached) rather than simulated.
type RunResult struct {
	Scenario    Scenario
	Flows       []*netsim.Flow
	Link        *netsim.Link
	Utilization float64
	// FlowSummaries is the detached per-flow view (stats, series, Jury
	// counters) that every figure/table consumer reads.
	FlowSummaries []*FlowSummary
	LinkSummary   LinkSummary
	// Digest fingerprints the run (event stream + final statistics) when
	// the invariant checker was attached; zero otherwise.
	Digest uint64
	// Checked reports whether the run executed under the invariant checker.
	Checked bool
	// Cached reports that the result was loaded from the run store instead
	// of simulated.
	Cached bool
	// Stream is the streaming-observability summary; nil unless the run
	// executed with the Obs runtime attached (or was restored from a record
	// that carried one).
	Stream *obs.StreamSummary
}

// summarize detaches the result's flow and link state into FlowSummaries /
// LinkSummary once the simulation is over.
func (r *RunResult) summarize() {
	r.FlowSummaries = make([]*FlowSummary, 0, len(r.Flows))
	for _, f := range r.Flows {
		fs := &FlowSummary{
			name:    f.Name(),
			baseRTT: f.BaseRTT(),
			stats:   f.Stats(),
			series:  f.Series(),
		}
		fs.lateMeanBps = metrics.MeanThroughput(fs, r.Scenario.Horizon/3, r.Scenario.Horizon)
		if j, ok := f.CC().(*core.Jury); ok {
			fs.degraded = j.DegradedDecisions()
			fs.nonFinite = j.NonFiniteActions()
		}
		r.FlowSummaries = append(r.FlowSummaries, fs)
	}
	if r.Link != nil {
		st := r.Link.FaultStats()
		r.LinkSummary = LinkSummary{
			FaultDrops: st.Drops(),
			Reordered:  st.Reordered,
			Duplicated: st.Duplicated,
		}
	}
}

// Run executes a scenario. When a run store is attached (see AttachStore),
// the completed result is appended to it; in resume mode a scenario whose
// content key is already stored is served from the store without touching
// the simulator.
func Run(s Scenario) (*RunResult, error) {
	if s.Horizon <= 0 {
		return nil, fmt.Errorf("exp: scenario %q without horizon", s.Name)
	}
	slot, rec := lookupStore(ScenarioKey(s))
	if rec != nil {
		return resultFromRecord(s, rec), nil
	}
	n := netsim.New(netsim.Config{Seed: s.Seed})
	link := n.AddLink(netsim.LinkConfig{
		Rate:        s.Rate,
		Trace:       s.Trace,
		Delay:       s.OneWayDelay,
		BufferBytes: s.BufferBytes,
		LossRate:    s.LossRate,
		Faults:      s.Faults,
	})
	for i, fs := range s.Flows {
		seed := s.Seed*1000 + uint64(i) + 1
		var alg cc.Algorithm
		if fs.CC != nil {
			alg = fs.CC(seed)
		} else {
			var err error
			alg, err = NewScheme(fs.Scheme, seed)
			if err != nil {
				return nil, err
			}
		}
		n.AddFlow(netsim.FlowConfig{
			Name:        fmt.Sprintf("%s-%d", fs.Scheme, i),
			Path:        []*netsim.Link{link},
			Start:       fs.Start,
			Duration:    fs.Duration,
			ExtraOneWay: fs.ExtraOneWay,
			PacketSize:  s.PacketSize,
			CC:          func() cc.Algorithm { return alg },
		})
	}
	if err := n.Validate(); err != nil {
		return nil, err
	}
	shards := effectiveShards(s)
	out, err := simulate(n, runSpec{
		name: s.Name, seed: s.Seed, horizon: s.Horizon, check: s.Check,
		shards: shards, obsShards: shards,
	})
	if err != nil {
		return nil, err
	}
	res := &RunResult{
		Scenario:    s,
		Flows:       n.Flows(),
		Link:        link,
		Utilization: link.Utilization(s.Horizon),
		Digest:      out.digest,
		Checked:     out.checked,
		Stream:      out.stream,
	}
	res.summarize()
	if err := slot.put(func() *runstore.Record { return recordFromResult(s, res) }); err != nil {
		return nil, fmt.Errorf("exp: scenario %q: %w", s.Name, err)
	}
	return res, nil
}

// runSpec is what the run core needs to know about a built network.
type runSpec struct {
	name    string // labels spans, events and errors
	seed    uint64
	horizon time.Duration
	check   bool // attach the invariant checker (ForceCheck overrides)
	// shards > 1 runs the network sharded; obsShards is the shard count the
	// streaming observer is attached with.
	shards, obsShards int
}

// runOutcome is what the run core reports back to its builder.
type runOutcome struct {
	digest  uint64 // simcheck digest; zero unless checked
	checked bool
	stream  *obs.StreamSummary // nil without Obs
	// shards reports per-shard event counts (one entry for a sequential
	// run) and, for a sharded run, the partition and barrier figures.
	shards *netsim.ShardRun
}

// simulate is the one code path that executes a whole simulation. It
// attaches the simcheck invariant checker, then the streaming observer
// (which chains behind the checker's tap), runs the network to the horizon
// sequentially or sharded, reports the run to telemetry, and finishes the
// checker and the observer. Every builder (Run's dumbbell, BuildHuge's
// mesh, the parking lot) hands its network here, so every whole-run
// experiment is audited, instrumented and observed alike.
func simulate(n *netsim.Network, sp runSpec) (runOutcome, error) {
	liveRuns.Add(1)
	var ck *simcheck.Checker
	if sp.check || ForceCheck {
		ck = simcheck.Attach(n)
	}
	hub := Telemetry
	var span telemetry.Span
	var started time.Time
	if hub.Enabled() {
		hub.Registry.Counter("exp_runs_started_total", "scenario runs started").Inc()
		span = hub.StartSpan("run:"+sp.name, 0)
		hub.Event("exp", "run_start", 0,
			telemetry.Str("scenario", sp.name),
			telemetry.I64("flows", int64(len(n.Flows()))),
			telemetry.I64("seed", int64(sp.seed)))
		started = time.Now()
	}
	fail := func(outcome string, err error) (runOutcome, error) {
		if hub.Enabled() {
			hub.Registry.Counter("exp_runs_failed_total", "scenario runs that returned an error").Inc()
			span.End(sp.horizon, telemetry.Str("outcome", outcome))
		}
		return runOutcome{}, fmt.Errorf("exp: scenario %q: %w", sp.name, err)
	}
	var ob *obs.Observer
	if Obs != nil {
		// The observatory claims the network's window hook. The violation
		// hook and the panic dump are wired here so obs never imports
		// simcheck or the harness.
		ob = Obs.Attach(n, sp.obsShards)
		if ck != nil {
			ck.SetViolationHook(func(v simcheck.Violation) { ob.NoteViolation(v.Time, v.Rule) })
		}
		defer func() {
			if r := recover(); r != nil {
				ob.DumpFlight("panic")
				panic(r)
			}
		}()
	}
	var out runOutcome
	if sp.shards > 1 {
		sr, err := n.RunSharded(sp.horizon, sp.shards)
		if err != nil {
			return fail("shard_error", err)
		}
		out.shards = sr
	} else {
		out.shards = &netsim.ShardRun{Executed: []int64{int64(n.Run(sp.horizon))}}
	}
	if hub.Enabled() {
		reportSim(hub, n, out.shards)
	}
	out.stream = ob.Finish(sp.horizon)
	if ck != nil {
		ck.Finish()
		if err := ck.Err(); err != nil {
			return fail("invariant_violation", err)
		}
		out.digest, out.checked = ck.Digest(), true
	}
	if hub.Enabled() {
		hub.Registry.Histogram("exp_run_seconds", "wall time of one scenario run", telemetry.ExpBuckets(1e-3, 2, 18)).
			Observe(time.Since(started).Seconds())
		hub.Registry.Counter("exp_runs_finished_total", "scenario runs finished successfully").Inc()
		span.End(sp.horizon, telemetry.Str("outcome", "ok"))
		hub.Event("exp", "run_finish", sp.horizon,
			telemetry.Str("scenario", sp.name),
			telemetry.Str("digest", fmt.Sprintf("%016x", out.digest)))
	}
	return out, nil
}

// reportSim exports one finished run to telemetry. The sim-domain counters
// add up the simulator's own ledgers (flow, link and fault stats, executed
// events, the Jury decision guards), so nothing observes the run while it
// executes; a run through RunSharded also reports its shard and barrier
// figures. With a trace sink, every recorded series point becomes one sim
// "sample" event.
func reportSim(hub *telemetry.Hub, n *netsim.Network, sr *netsim.ShardRun) {
	r := hub.Registry
	var sent, acked, lost, degraded, nonFinite, drops, faultN, events int64
	for _, f := range n.Flows() {
		st := f.Stats()
		sent += st.SentPackets
		acked += st.AckedPackets
		lost += st.LostPackets
		if j, ok := f.CC().(*core.Jury); ok {
			degraded += j.DegradedDecisions()
			nonFinite += j.NonFiniteActions()
		}
	}
	for _, l := range n.Links() {
		ls, fs := l.Stats(), l.FaultStats()
		drops += ls.OverflowDrops + ls.RandomDrops
		faultN += fs.BurstDrops + fs.BlackoutDrops + fs.Reordered + fs.Duplicated + fs.JitterSpikes
	}
	for _, e := range sr.Executed {
		events += e
	}
	r.Counter("sim_packets_sent_total", "packets transmitted by all flows").Add(sent)
	r.Counter("sim_packets_acked_total", "acknowledgments delivered to senders").Add(acked)
	r.Counter("sim_packets_lost_total", "sender-detected packet losses").Add(lost)
	r.Counter("sim_queue_drops_total", "packets discarded by link queues (overflow + random)").Add(drops)
	r.Counter("sim_faults_injected_total", "fault-injector actions on packets").Add(faultN)
	r.Counter("sim_engine_events_total", "discrete events executed by finished runs").Add(events)
	r.Counter("jury_degraded_decisions", "AIMD fallbacks at the decision boundary (non-finite signals or policy output)").Add(degraded)
	r.Counter("jury_nonfinite_actions", "non-finite actions that slipped past the decision guard (must stay 0)").Add(nonFinite)
	if sr.Partition != nil { // set only by RunSharded
		r.Gauge("sim_shards", "shard count of the most recent sharded run").Set(float64(len(sr.Executed)))
		for i, e := range sr.Executed {
			r.Counter(fmt.Sprintf("sim_shard_%d_events_total", i),
				fmt.Sprintf("events executed by shard %d across sharded runs", i)).Add(e)
		}
		r.Counter("sim_barrier_rounds_total", "barrier episodes across sharded runs").Add(sr.BarrierRounds)
		r.Counter("sim_fused_windows_total", "windows that skipped the exchange phase across sharded runs").Add(sr.FusedWindows)
	}
	if hub.Tracer == nil {
		return
	}
	for _, f := range n.Flows() {
		for _, p := range f.Series() {
			hub.Tracer.Event("sim", "sample", p.T,
				telemetry.Str("flow", f.Name()),
				telemetry.F64("thr_bps", p.ThroughputBps),
				telemetry.F64("send_bps", p.SendRateBps),
				telemetry.Dur("rtt_ns", p.AvgRTT),
				telemetry.F64("loss", p.LossRate),
				telemetry.F64("cwnd", p.Cwnd),
				telemetry.F64("pacing_bps", p.PacingBps),
			)
		}
	}
}
