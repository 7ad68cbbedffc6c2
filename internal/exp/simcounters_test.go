package exp

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"testing"
	"time"

	"repro/internal/cc"
	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/netsim"
	"repro/internal/telemetry"
)

// metricValues reads every scalar instrument of r by name, whatever its kind.
func metricValues(t *testing.T, r *telemetry.Registry) map[string]float64 {
	t.Helper()
	var buf bytes.Buffer
	if err := r.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var raw map[string]any
	if err := json.Unmarshal(buf.Bytes(), &raw); err != nil {
		t.Fatal(err)
	}
	out := map[string]float64{}
	for k, v := range raw {
		if f, ok := v.(float64); ok {
			out[k] = f
		}
	}
	return out
}

// faultyDumbbell is a two-flow dumbbell with Gilbert–Elliott burst loss,
// duplication, reordering and jitter spikes on its bottleneck. Both flows
// run to the horizon, so every ACK and loss lands in a flow's ledger.
func faultyDumbbell(t *testing.T) *netsim.Network {
	t.Helper()
	n := netsim.New(netsim.Config{Seed: 13})
	link := n.AddLink(netsim.LinkConfig{
		Rate:        20e6,
		Delay:       15 * time.Millisecond,
		BufferBytes: 48 * 1500,
		Faults: &faults.Config{
			GE:              &faults.GEConfig{PGoodBad: 0.005, PBadGood: 0.25, LossBad: 1},
			DupProb:         0.01,
			ReorderProb:     0.02,
			ReorderMaxDelay: 5 * time.Millisecond,
			JitterProb:      0.01,
			JitterMax:       8 * time.Millisecond,
		},
	})
	for i, scheme := range []string{"cubic", "jury"} {
		alg, err := NewScheme(scheme, uint64(100+i))
		if err != nil {
			t.Fatal(err)
		}
		n.AddFlow(netsim.FlowConfig{
			Name:  fmt.Sprintf("%s-%d", scheme, i),
			Path:  []*netsim.Link{link},
			Start: time.Duration(i) * 300 * time.Millisecond,
			CC:    func() cc.Algorithm { return alg },
		})
	}
	if err := n.Validate(); err != nil {
		t.Fatal(err)
	}
	return n
}

// ledgerTotals sums the simulator's own ledgers the way the sim counters
// are defined.
func ledgerTotals(n *netsim.Network, executed []int64) map[string]float64 {
	var sent, acked, lost, drops, faultN, events, degraded, nonFinite int64
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
	for _, e := range executed {
		events += e
	}
	return map[string]float64{
		"sim_packets_sent_total":    float64(sent),
		"sim_packets_acked_total":   float64(acked),
		"sim_packets_lost_total":    float64(lost),
		"sim_queue_drops_total":     float64(drops),
		"sim_faults_injected_total": float64(faultN),
		"sim_engine_events_total":   float64(events),
		"jury_degraded_decisions":   float64(degraded),
		"jury_nonfinite_actions":    float64(nonFinite),
	}
}

// simCountersPinned is what the netsim-tap observer counted on the faulty
// dumbbell before the sim counters were read from the ledgers; the ledger
// sums must reproduce it exactly.
var simCountersPinned = map[string]float64{
	"sim_packets_sent_total":    6334,
	"sim_packets_acked_total":   6061,
	"sim_packets_lost_total":    208,
	"sim_queue_drops_total":     75,
	"sim_faults_injected_total": 391,
	"sim_engine_events_total":   22555,
	"jury_degraded_decisions":   0,
	"jury_nonfinite_actions":    0,
}

// TestSimCountersMatchLedgers runs a checked, fault-injected dumbbell with
// telemetry on and requires every sim-domain counter to equal the sum of the
// simulator's own ledgers, and to match the count the per-packet tap
// produced.
func TestSimCountersMatchLedgers(t *testing.T) {
	hub := &telemetry.Hub{
		Registry: telemetry.NewRegistry(),
		Tracer:   telemetry.NewTracer(telemetry.NewSink(io.Discard)),
	}
	Telemetry = hub
	defer func() { Telemetry = nil }()

	n := faultyDumbbell(t)
	horizon := 4 * time.Second
	out, err := simulate(n, runSpec{name: "sim-counters", seed: 13, horizon: horizon, check: true, shards: 1, obsShards: 1})
	if err != nil {
		t.Fatal(err)
	}
	if !out.checked {
		t.Fatal("run was not checked")
	}
	for _, f := range n.Flows() {
		if st := f.Stats(); st.Start+st.ActiveFor != horizon {
			t.Fatalf("flow %s stopped at %v before the horizon", st.Name, st.Start+st.ActiveFor)
		}
	}
	fs := n.Links()[0].FaultStats()
	if fs.BurstDrops == 0 || fs.Duplicated == 0 || fs.Reordered == 0 || fs.JitterSpikes == 0 {
		t.Fatalf("a fault process never fired: %+v", fs)
	}

	got := metricValues(t, hub.Registry)
	for name, want := range ledgerTotals(n, out.shards.Executed) {
		if got[name] != want {
			t.Errorf("%s = %v, ledger sum %v", name, got[name], want)
		}
		if pin, ok := simCountersPinned[name]; !ok || got[name] != pin {
			t.Errorf("%s = %v, tap count pinned at %v", name, got[name], pin)
		}
	}
}

// TestShardedSimCounters: a sharded run reports its ledgers and the
// coordinator's figures once, after it returns.
func TestShardedSimCounters(t *testing.T) {
	hub := &telemetry.Hub{Registry: telemetry.NewRegistry()}
	Telemetry = hub
	defer func() { Telemetry = nil }()

	n, o := BuildHuge(HugeOptions{Segments: 4, TotalFlows: 64, Horizon: 500 * time.Millisecond, Shards: 2, Seed: 1})
	out, err := simulate(n, runSpec{name: "sim-counters-sharded", seed: o.Seed, horizon: o.Horizon, shards: o.Shards, obsShards: o.Shards})
	if err != nil {
		t.Fatal(err)
	}
	sr := out.shards
	if len(sr.Executed) != 2 || sr.BarrierRounds == 0 {
		t.Fatalf("run was not sharded: %+v", sr)
	}
	got := metricValues(t, hub.Registry)
	want := ledgerTotals(n, sr.Executed)
	want["sim_shards"] = float64(len(sr.Executed))
	want["sim_barrier_rounds_total"] = float64(sr.BarrierRounds)
	want["sim_fused_windows_total"] = float64(sr.FusedWindows)
	for i, e := range sr.Executed {
		want[fmt.Sprintf("sim_shard_%d_events_total", i)] = float64(e)
	}
	for name, w := range want {
		if got[name] != w {
			t.Errorf("%s = %v, want %v", name, got[name], w)
		}
	}
}
