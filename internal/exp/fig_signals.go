package exp

import (
	"time"

	"repro/internal/cc"
	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/netsim"
)

// Fig. 4 and Fig. 5 are the two experiments that do not go through Run:
// they step a manual controller's rate while the simulation is paused
// between horizons, so they are not whole-run scenarios. They build and
// drive their own networks, and are the only runs that ForceCheck,
// Telemetry and Obs do not see.

// Fig4Row is one sample of the Fig. 4 study: how throughput, RTT, and loss
// respond as a single flow ramps its sending rate through the three queue
// phases (empty → queuing → overflowing).
type Fig4Row struct {
	SendRateBps   float64
	ThroughputBps float64
	AvgRTT        time.Duration
	LossRate      float64
}

// Fig4Options parameterizes the signal-phase study. Zero value = paper
// setup: 100 Mbps, 30 ms RTT, 750 KB buffer.
type Fig4Options struct {
	Rate        float64
	OneWayDelay time.Duration
	BufferBytes int
	Seed        uint64
}

func (o *Fig4Options) defaults() {
	if o.Rate == 0 {
		o.Rate = 100e6
	}
	if o.OneWayDelay == 0 {
		o.OneWayDelay = 15 * time.Millisecond
	}
	if o.BufferBytes == 0 {
		o.BufferBytes = 750_000
	}
}

// Fig4SignalPhases ramps a single manual flow from 10% to 250% of the link
// capacity and records the feedback at each step, reproducing Fig. 4's
// phase structure.
func Fig4SignalPhases(o Fig4Options) ([]Fig4Row, error) {
	o.defaults()
	var rows []Fig4Row
	const holdPer = 4 * time.Second
	// The ramp is fine-grained around capacity so the intermediate
	// "queuing" phase — RTT inflating while throughput is capped but the
	// buffer has not yet overflowed — is visible, exactly as in Fig. 4.
	var fractions []float64
	for f := 0.1; f < 0.9; f += 0.1 {
		fractions = append(fractions, f)
	}
	for f := 0.9; f < 1.1; f += 0.01 {
		fractions = append(fractions, f)
	}
	for f := 1.1; f <= 2.5; f += 0.2 {
		fractions = append(fractions, f)
	}
	n := netsim.New(netsim.Config{Seed: o.Seed + 1})
	l := n.AddLink(netsim.LinkConfig{Rate: o.Rate, Delay: o.OneWayDelay, BufferBytes: o.BufferBytes})
	man := cc.NewManual(0.1 * o.Rate)
	f := n.AddFlow(netsim.FlowConfig{Name: "probe", Path: []*netsim.Link{l},
		CC: func() cc.Algorithm { return man }})
	for i, frac := range fractions {
		rate := o.Rate * frac
		man.SetRate(rate)
		start := time.Duration(i) * holdPer
		n.Run(start + holdPer)
		// Measure over the second half of the hold, after transients.
		from, to := start+holdPer/2, start+holdPer
		row := Fig4Row{
			SendRateBps:   rate,
			ThroughputBps: metrics.MeanThroughput(f, from, to),
			AvgRTT:        metrics.MeanRTT(f, from, to),
		}
		var lost, acked float64
		for _, p := range f.Series() {
			if p.T >= from && p.T <= to {
				lost += p.LossRate
				acked++
			}
		}
		if acked > 0 {
			row.LossRate = lost / acked
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// Fig5Row is one sample of the Fig. 5 study: the observed throughput change
// when a flow occupying a given share of the link increases its rate 10%.
type Fig5Row struct {
	Share          float64 // the probing flow's pre-probe share of capacity
	ThrChangeRatio float64 // thr_after / thr_before
	EstimatedShare float64 // Eq. 5 inversion of the observed pair
}

// Fig5Options parameterizes the occupancy-probe study.
type Fig5Options struct {
	Rate        float64
	OneWayDelay time.Duration
	BufferBytes int
	Seed        uint64
}

func (o *Fig5Options) defaults() {
	if o.Rate == 0 {
		o.Rate = 100e6
	}
	if o.OneWayDelay == 0 {
		o.OneWayDelay = 15 * time.Millisecond
	}
	if o.BufferBytes == 0 {
		o.BufferBytes = 750_000
	}
}

// Fig5OccupancyProbe sweeps the probing flow's share of a saturated 2-flow
// bottleneck and measures the throughput response to a +10% rate change,
// then inverts it with Eq. 5 — reproducing both Fig. 5 and the estimator's
// calibration curve.
func Fig5OccupancyProbe(o Fig5Options) ([]Fig5Row, error) {
	o.defaults()
	var rows []Fig5Row
	for _, share := range []float64{0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9} {
		n := netsim.New(netsim.Config{Seed: o.Seed + uint64(share*100)})
		l := n.AddLink(netsim.LinkConfig{Rate: o.Rate, Delay: o.OneWayDelay, BufferBytes: o.BufferBytes})
		// Offered loads sum to 120% of capacity so the bottleneck is
		// saturated and shares are admission-proportional (Eq. 2).
		probe := cc.NewManual(1.2 * share * o.Rate)
		other := cc.NewManual(1.2 * (1 - share) * o.Rate)
		fp := n.AddFlow(netsim.FlowConfig{Name: "probe", Path: []*netsim.Link{l},
			CC: func() cc.Algorithm { return probe }})
		n.AddFlow(netsim.FlowConfig{Name: "other", Path: []*netsim.Link{l},
			CC: func() cc.Algorithm { return other }})
		n.Run(20 * time.Second)
		before := metrics.MeanThroughput(fp, 10*time.Second, 20*time.Second)
		probe.SetRate(1.1 * 1.2 * share * o.Rate) // the +10% probe
		n.Run(40 * time.Second)
		after := metrics.MeanThroughput(fp, 30*time.Second, 40*time.Second)
		if before <= 0 {
			continue
		}
		ratio := after / before
		est, _ := core.EstimateOccupancy(1.1, ratio)
		rows = append(rows, Fig5Row{
			Share:          before / o.Rate,
			ThrChangeRatio: ratio,
			EstimatedShare: est,
		})
	}
	return rows, nil
}
