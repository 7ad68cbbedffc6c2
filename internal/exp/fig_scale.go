package exp

import (
	"fmt"
	"time"

	"repro/internal/cc"
	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/simcore"
)

// Tab3Row is one row of Table 3: the mean per-flow throughput and delay
// ratio for one class of flows in a large-scale mix.
type Tab3Row struct {
	Experiment string // "long-short" or "hetero-rtt"
	Class      string // "overall", "long", "short", "small-rtt", "large-rtt"
	ThrMbps    float64
	DelayRatio float64 // mean RTT / base RTT
	Flows      int
}

// Tab3Options scales the Table 3 experiments. The paper uses a 100-second
// trace repeated 20 times on a ~200 Mbps aggregate; the zero value runs a
// reduced repetition count.
type Tab3Options struct {
	Rate     float64
	Repeats  int
	Lifetime time.Duration
	Seed     uint64
}

func (o *Tab3Options) defaults() {
	if o.Rate == 0 {
		o.Rate = 200e6
	}
	if o.Repeats == 0 {
		o.Repeats = 3
	}
	if o.Lifetime == 0 {
		o.Lifetime = 100 * time.Second
	}
}

// flowAgg accumulates per-class results across repeats.
type flowAgg struct {
	thr   []float64
	ratio []float64
	n     int
}

func (a *flowAgg) add(f *FlowSummary, from, to time.Duration) {
	thr := metrics.MeanThroughput(f, from, to)
	if thr <= 0 {
		return
	}
	a.thr = append(a.thr, thr)
	if rtt := metrics.MeanRTT(f, from, to); rtt > 0 && f.BaseRTT() > 0 {
		a.ratio = append(a.ratio, float64(rtt)/float64(f.BaseRTT()))
	}
	a.n++
}

func (a *flowAgg) row(exp, class string) Tab3Row {
	return Tab3Row{
		Experiment: exp,
		Class:      class,
		ThrMbps:    metrics.Mean(a.thr) / 1e6,
		DelayRatio: metrics.Mean(a.ratio),
		Flows:      a.n,
	}
}

// tab3Flow is one Jury flow of a Table 3 mix. Its controller seed is drawn
// from the repeat's RNG, not derived by Run, so the CC factory ignores the
// seed Run offers.
func tab3Flow(seed uint64) FlowSpec {
	return FlowSpec{Scheme: "jury", CC: func(uint64) cc.Algorithm { return core.NewDefault(seed) }}
}

// tab3Scenario is one Table 3 repeat's link; the network seed is the
// repeat RNG's first draw.
func tab3Scenario(name string, o Tab3Options, bufferRTT float64, rng *simcore.RNG) Scenario {
	return Scenario{
		Name:        name,
		Rate:        o.Rate,
		OneWayDelay: 15 * time.Millisecond,
		BufferBytes: int(o.Rate / 8 * bufferRTT),
		Horizon:     o.Lifetime,
		Seed:        rng.Uint64(),
	}
}

// tab3Longs is the number of long-running flows in experiment (i); they
// lead every repeat's flow list.
const tab3Longs = 4

// Tab3LongShort runs experiment (i): 4 long-running Jury flows plus a churn
// of short flows with Poisson arrivals (λ=4/s) and N(4,1)-second lifetimes.
func Tab3LongShort(o Tab3Options) ([]Tab3Row, error) {
	o.defaults()
	jobs := make([]Scenario, o.Repeats)
	for rep := range jobs {
		rng := simcore.NewRNG(o.Seed + uint64(rep)*77)
		s := tab3Scenario(fmt.Sprintf("tab3-long-short-%d", rep), o, 0.030, rng)
		for i := 0; i < tab3Longs; i++ {
			s.Flows = append(s.Flows, tab3Flow(rng.Uint64()))
		}
		// Poisson short-flow arrivals.
		for t := 0.0; t < o.Lifetime.Seconds(); t += rng.ExpFloat64() / 4 {
			life := rng.Norm(4, 1)
			if life < 0.5 {
				life = 0.5
			}
			f := tab3Flow(rng.Uint64())
			f.Start = time.Duration(t * float64(time.Second))
			f.Duration = time.Duration(life * float64(time.Second))
			s.Flows = append(s.Flows, f)
		}
		jobs[rep] = s
	}
	results, err := RunMany(jobs)
	if err != nil {
		return nil, err
	}
	var long, short, overall flowAgg
	warm := o.Lifetime / 5
	for _, r := range results {
		for i, f := range r.FlowSummaries {
			if i < tab3Longs {
				long.add(f, warm, o.Lifetime)
				overall.add(f, warm, o.Lifetime)
			} else {
				short.add(f, 0, o.Lifetime)
				overall.add(f, 0, o.Lifetime)
			}
		}
	}
	// The overall row's throughput is the mean per-flow share; the paper
	// reports the aggregate (~192 Mbps on the 200 Mbps link).
	return []Tab3Row{
		overall.row("long-short", "overall"),
		long.row("long-short", "long"),
		short.row("long-short", "short"),
	}, nil
}

// Tab3HeteroRTT runs experiment (ii): 20 Jury flows, half with 30 ms and
// half with 90 ms base RTT.
func Tab3HeteroRTT(o Tab3Options) ([]Tab3Row, error) {
	o.defaults()
	jobs := make([]Scenario, o.Repeats)
	for rep := range jobs {
		rng := simcore.NewRNG(o.Seed + uint64(rep)*133)
		s := tab3Scenario(fmt.Sprintf("tab3-hetero-rtt-%d", rep), o, 0.090, rng)
		for i := 0; i < 20; i++ {
			f := tab3Flow(rng.Uint64())
			f.Start = time.Duration(i) * 500 * time.Millisecond
			if i%2 == 1 {
				f.ExtraOneWay = 30 * time.Millisecond // 90 ms base RTT
			}
			s.Flows = append(s.Flows, f)
		}
		jobs[rep] = s
	}
	results, err := RunMany(jobs)
	if err != nil {
		return nil, err
	}
	var small, large flowAgg
	warm := o.Lifetime / 3
	for _, r := range results {
		for i, f := range r.FlowSummaries {
			if i%2 == 1 {
				large.add(f, warm, o.Lifetime)
			} else {
				small.add(f, warm, o.Lifetime)
			}
		}
	}
	return []Tab3Row{
		small.row("hetero-rtt", "small-rtt"),
		large.row("hetero-rtt", "large-rtt"),
	}, nil
}
