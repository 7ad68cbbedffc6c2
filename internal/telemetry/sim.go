package telemetry

import (
	"fmt"
	"time"

	"repro/internal/cc"
	"repro/internal/netsim"
)

// juryCounters is the structural slice of core.Jury the sim observer
// exports (no core import: telemetry must stay below every domain package
// so all of them can depend on it).
type juryCounters interface {
	Intervals() int64
	DegradedDecisions() int64
	NonFiniteActions() int64
}

// SimObserver instruments one network: packet/queue/fault counters, a
// per-ACK RTT histogram, the virtual clock, and per-interval structured
// events. It composes with whatever Tap and engine hook are already
// installed (the simcheck invariant checker runs first, telemetry second),
// and it only reads — never schedules events or draws randomness — so an
// instrumented run is digest-identical to a bare one.
type SimObserver struct {
	tracer *Tracer

	pktSent   *Counter
	pktAcked  *Counter
	pktLost   *Counter
	qDrops    *Counter
	faults    *Counter
	intervals *Counter
	events    *Counter
	ackRTT    *Histogram
	vt        *Gauge
}

// AttachSim instruments n with the hub's registry and tracer, chaining any
// previously installed tap and engine hook. It returns nil (and installs
// nothing) when the hub is disabled.
func AttachSim(n *netsim.Network, h *Hub) *SimObserver {
	if !h.Enabled() {
		return nil
	}
	r := h.Registry
	o := &SimObserver{
		tracer:    h.Tracer,
		pktSent:   r.Counter("sim_packets_sent_total", "packets transmitted by all flows"),
		pktAcked:  r.Counter("sim_packets_acked_total", "acknowledgments delivered to senders"),
		pktLost:   r.Counter("sim_packets_lost_total", "sender-detected packet losses"),
		qDrops:    r.Counter("sim_queue_drops_total", "packets discarded by link queues (overflow + random)"),
		faults:    r.Counter("sim_faults_injected_total", "fault-injector actions on packets"),
		intervals: r.Counter("sim_intervals_total", "interval statistics delivered to controllers"),
		events:    r.Counter("sim_engine_events_total", "discrete events executed by instrumented engines"),
		ackRTT:    r.Histogram("sim_ack_rtt_seconds", "per-ACK round-trip time", ExpBuckets(1e-3, 2, 14)),
		vt:        r.Gauge("sim_virtual_time_seconds", "virtual clock of the most recently attached network"),
	}
	n.SetTap(netsim.Taps(n.Tap(), o))
	prev := n.Engine().EventHook()
	n.Engine().SetEventHook(func(at time.Duration, seq uint64) {
		if prev != nil {
			prev(at, seq)
		}
		o.events.Inc()
		o.vt.Set(at.Seconds())
	})
	exportJuryCounters(r, n)
	return o
}

// RecordShards exports the outcome of one sharded simulation run: a gauge
// with the shard count of the most recent run plus one cumulative per-shard
// executed-event counter (sim_shard_<i>_events_total). executed is
// ShardRun.Executed from netsim — one entry per shard, in shard order. A
// disabled hub records nothing.
func RecordShards(h *Hub, executed []int64) {
	if !h.Enabled() {
		return
	}
	h.Registry.Gauge("sim_shards", "shard count of the most recent sharded run").Set(float64(len(executed)))
	for i, e := range executed {
		h.Registry.Counter(
			fmt.Sprintf("sim_shard_%d_events_total", i),
			fmt.Sprintf("events executed by shard %d across sharded runs", i),
		).Add(e)
	}
}

// RecordCoordinator exports the synchronization economics of one sharded
// run: cumulative barrier episodes and fused windows (windows whose
// cross-shard exchange phase — and second barrier — was skipped because no
// shard had events or hook records to publish). The two together say how
// barrier-lean the coordinator ran: fused/(fused+rounds-fused) is the
// fraction of windows that cost one barrier instead of two. A disabled hub
// records nothing.
func RecordCoordinator(h *Hub, rounds, fused int64) {
	if !h.Enabled() {
		return
	}
	h.Registry.Counter("sim_barrier_rounds_total", "barrier episodes across sharded runs").Add(rounds)
	h.Registry.Counter("sim_fused_windows_total", "windows that skipped the exchange phase across sharded runs").Add(fused)
}

// exportJuryCounters registers callback gauges summing the decision-guard
// counters of every Jury controller in the network. The counters are
// atomics, so the debug endpoint reads them live while the simulation runs.
func exportJuryCounters(r *Registry, n *netsim.Network) {
	var juries []juryCounters
	for _, f := range n.Flows() {
		if j, ok := f.CC().(juryCounters); ok {
			juries = append(juries, j)
		}
	}
	if len(juries) == 0 {
		return
	}
	sum := func(read func(juryCounters) int64) func() float64 {
		return func() float64 {
			var s int64
			for _, j := range juries {
				s += read(j)
			}
			return float64(s)
		}
	}
	r.GaugeFunc("jury_intervals", "control intervals elapsed across Jury flows of the live network",
		sum(juryCounters.Intervals))
	r.GaugeFunc("jury_degraded_decisions", "AIMD fallbacks at the decision boundary (non-finite signals or policy output)",
		sum(juryCounters.DegradedDecisions))
	r.GaugeFunc("jury_nonfinite_actions", "non-finite actions that slipped past the decision guard (must stay 0)",
		sum(juryCounters.NonFiniteActions))
}

// PacketSent implements netsim.Tap.
func (o *SimObserver) PacketSent(f *netsim.Flow, bytes int) { o.pktSent.Inc() }

// PacketAcked implements netsim.Tap.
func (o *SimObserver) PacketAcked(f *netsim.Flow, bytes int, rtt time.Duration) {
	o.pktAcked.Inc()
	o.ackRTT.Observe(rtt.Seconds())
}

// PacketLost implements netsim.Tap.
func (o *SimObserver) PacketLost(f *netsim.Flow, bytes int) { o.pktLost.Inc() }

// QueueEnqueued implements netsim.Tap.
func (o *SimObserver) QueueEnqueued(l *netsim.Link, bytes int) {}

// QueueDeparted implements netsim.Tap.
func (o *SimObserver) QueueDeparted(l *netsim.Link, bytes int) {}

// QueueDropped implements netsim.Tap: a counter plus a structured event
// (drops are rare enough to log individually, and a drop timeline is
// exactly what a degrading robustness case needs explained). The event
// takes the link's own clock: in a sharded run the tap fires on the link's
// shard, where reading another shard's engine would race.
func (o *SimObserver) QueueDropped(l *netsim.Link, bytes int, random bool) {
	o.qDrops.Inc()
	if o.tracer != nil {
		kind := "overflow"
		if random {
			kind = "random"
		}
		o.tracer.Event("sim", "drop", l.Now(), Str("kind", kind), I64("bytes", int64(bytes)))
	}
}

// IntervalDelivered implements netsim.Tap: the per-interval event stream
// behind the paper's Fig. 6/7-style dynamics (throughput, loss, RTT, cwnd
// per control interval per flow).
func (o *SimObserver) IntervalDelivered(f *netsim.Flow, s cc.IntervalStats) {
	o.intervals.Inc()
	if o.tracer == nil {
		return
	}
	thr := 0.0
	if s.Interval > 0 {
		thr = float64(s.AckedBytes) * 8 / s.Interval.Seconds()
	}
	o.tracer.Event("sim", "interval", s.Now,
		Str("flow", f.Name()),
		I64("sent", s.SentPackets),
		I64("acked", s.AckedPackets),
		I64("lost", s.LostPackets),
		F64("thr_bps", thr),
		Dur("avg_rtt_ns", s.AvgRTT),
		F64("cwnd", f.CC().CWND()),
		F64("pacing_bps", f.CC().PacingRate()),
	)
}

// SampleRecorded implements netsim.Tap. The observer's per-interval event
// stream already carries the same signal at controller granularity, so
// recorded series points are not duplicated into the trace.
func (o *SimObserver) SampleRecorded(f *netsim.Flow, p netsim.SeriesPoint) {}

// FaultInjected implements netsim.Tap.
func (o *SimObserver) FaultInjected(l *netsim.Link, f *netsim.Flow, kind netsim.FaultKind, bytes int) {
	o.faults.Inc()
	if o.tracer != nil {
		o.tracer.Event("sim", "fault", l.Now(),
			Str("kind", kind.String()), Str("flow", f.Name()), I64("bytes", int64(bytes)))
	}
}
