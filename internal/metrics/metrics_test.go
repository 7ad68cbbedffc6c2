package metrics

import (
	"math"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/cc"
	"repro/internal/netsim"
)

func TestJainIndexKnownValues(t *testing.T) {
	cases := []struct {
		in   []float64
		want float64
	}{
		{[]float64{1, 1, 1}, 1},
		{[]float64{10, 10}, 1},
		{[]float64{1, 0, 0, 0}, 0.25},
		{[]float64{3, 1}, 0.8},
		{nil, 0},
		{[]float64{0, 0}, 0},
	}
	for _, c := range cases {
		if got := JainIndex(c.in); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("Jain(%v) = %v, want %v", c.in, got, c.want)
		}
	}
}

func TestJainIndexBounds(t *testing.T) {
	if err := quick.Check(func(raw []float64) bool {
		var xs []float64
		for _, v := range raw {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				continue
			}
			xs = append(xs, math.Abs(v))
		}
		if len(xs) == 0 {
			return true
		}
		j := JainIndex(xs)
		lo := 1/float64(len(xs)) - 1e-9
		return (j == 0 || j >= lo) && j <= 1+1e-9
	}, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestJainIndexScaleInvariant(t *testing.T) {
	a := []float64{2, 5, 9}
	b := []float64{20, 50, 90}
	if math.Abs(JainIndex(a)-JainIndex(b)) > 1e-12 {
		t.Fatal("Jain index not scale invariant")
	}
}

func TestPercentile(t *testing.T) {
	xs := []float64{5, 1, 3, 2, 4}
	if got := Percentile(xs, 0); got != 1 {
		t.Fatalf("p0 = %v", got)
	}
	if got := Percentile(xs, 100); got != 5 {
		t.Fatalf("p100 = %v", got)
	}
	if got := Percentile(xs, 50); got != 3 {
		t.Fatalf("p50 = %v", got)
	}
	if got := Percentile(nil, 50); got != 0 {
		t.Fatalf("empty percentile = %v", got)
	}
	// Input must not be mutated.
	if xs[0] != 5 {
		t.Fatal("Percentile sorted the caller's slice")
	}
}

func TestPercentiles(t *testing.T) {
	xs := []float64{5, 1, 3, 2, 4}
	got := Percentiles(xs, 0, 50, 95, 100)
	for i, p := range []float64{0, 50, 95, 100} {
		if want := Percentile(xs, p); got[i] != want {
			t.Errorf("Percentiles p%v = %v, want %v (Percentile agreement)", p, got[i], want)
		}
	}
	if xs[0] != 5 {
		t.Fatal("Percentiles sorted the caller's slice")
	}
	for _, v := range Percentiles(nil, 5, 95) {
		if v != 0 {
			t.Fatalf("empty Percentiles = %v, want zeros", v)
		}
	}
	if len(Percentiles(xs)) != 0 {
		t.Fatal("no requested percentiles should yield an empty slice")
	}
}

func TestMean(t *testing.T) {
	if Mean([]float64{1, 2, 3}) != 2 {
		t.Fatal("mean wrong")
	}
	if Mean(nil) != 0 {
		t.Fatal("empty mean wrong")
	}
}

func buildTwoFlowRun(t *testing.T) []*netsim.Flow {
	t.Helper()
	n := netsim.New(netsim.Config{Seed: 1})
	l := n.AddLink(netsim.LinkConfig{Rate: 10e6, Delay: 10 * time.Millisecond, BufferBytes: 100_000})
	f1 := n.AddFlow(netsim.FlowConfig{Name: "a", Path: []*netsim.Link{l}, CC: func() cc.Algorithm { return cc.NewManual(8e6) }})
	f2 := n.AddFlow(netsim.FlowConfig{Name: "b", Path: []*netsim.Link{l}, CC: func() cc.Algorithm { return cc.NewManual(8e6) }})
	n.Run(10 * time.Second)
	return []*netsim.Flow{f1, f2}
}

func TestFlowSeriesMetrics(t *testing.T) {
	flows := buildTwoFlowRun(t)
	thr := MeanThroughput(flows[0], 2*time.Second, 10*time.Second)
	if thr < 3e6 || thr > 7e6 {
		t.Fatalf("mean throughput %v, want ~5e6", thr)
	}
	q := MeanQueuingDelayMS(flows[0], 2*time.Second, 10*time.Second)
	if q <= 0 || q > 200 {
		t.Fatalf("queuing delay %v ms", q)
	}
	rtt := MeanRTT(flows[0], 2*time.Second, 10*time.Second)
	if rtt < 20*time.Millisecond {
		t.Fatalf("mean RTT %v below base", rtt)
	}
	if MeanThroughput(flows[0], 50*time.Second, 60*time.Second) != 0 {
		t.Fatal("out-of-range window should be 0")
	}
}

func TestTimewiseJain(t *testing.T) {
	flows := buildTwoFlowRun(t)
	j := TimewiseJain(flows)
	// Two equal-rate manual flows: near-perfect fairness at all times.
	if j < 0.95 {
		t.Fatalf("timewise Jain %v for equal flows", j)
	}
	if TimewiseJain[FlowSeries](nil) != 1 {
		t.Fatal("no-flow timewise Jain should be 1 (vacuous)")
	}
	// A lone flow is trivially fair at every instant.
	if j := TimewiseJain(flows[:1]); j != 1 {
		t.Fatalf("single-flow timewise Jain = %v, want 1", j)
	}
}

// staticSeries is a FlowSeries over a fixed, time-ordered series.
type staticSeries []netsim.SeriesPoint

func (staticSeries) Name() string                   { return "static" }
func (staticSeries) BaseRTT() time.Duration         { return 0 }
func (s staticSeries) Series() []netsim.SeriesPoint { return s }

// staggeredFlows builds flows whose record grids only partly overlap: each
// starts at its own offset and records at its own interval, so instants
// hold anywhere from one to all flows.
func staggeredFlows() []staticSeries {
	flows := make([]staticSeries, 6)
	x := uint64(12345)
	for i := range flows {
		start := time.Duration(i) * 10 * time.Millisecond
		step := time.Duration(10+i%3*10) * time.Millisecond
		for t := start; t < 20*time.Second; t += step {
			x = x*6364136223846793005 + 1442695040888963407
			rate := float64(x>>11) / (1 << 53) * 10e6
			flows[i] = append(flows[i], netsim.SeriesPoint{T: t, ThroughputBps: rate})
		}
	}
	return flows
}

// mapTimewiseJain is the original grouping: per-instant shares collected in
// a map and summed in map order.
func mapTimewiseJain(flows []staticSeries) float64 {
	series := make(map[time.Duration][]float64)
	for _, f := range flows {
		for _, p := range f {
			series[p.T] = append(series[p.T], p.ThroughputBps)
		}
	}
	var sum float64
	var n int
	for _, shares := range series {
		if len(shares) >= 2 {
			sum += JainIndex(shares)
			n++
		}
	}
	if n == 0 {
		return 1
	}
	return sum / float64(n)
}

// TestTimewiseJainDeterministic: repeated calls are bit-identical, and the
// time-ordered merge groups instants exactly as the map did.
func TestTimewiseJainDeterministic(t *testing.T) {
	flows := staggeredFlows()
	first := TimewiseJain(flows)
	if first <= 0 || first >= 1 {
		t.Fatalf("Jain %v on random shares, want inside (0, 1)", first)
	}
	for i := 0; i < 20; i++ {
		if got := TimewiseJain(flows); math.Float64bits(got) != math.Float64bits(first) {
			t.Fatalf("call %d returned %v, first call %v", i, got, first)
		}
	}
	if want := mapTimewiseJain(flows); math.Abs(first-want) > 1e-12 {
		t.Fatalf("merged Jain %v, map grouping %v", first, want)
	}
}

func TestConvergenceTime(t *testing.T) {
	n := netsim.New(netsim.Config{Seed: 9})
	l := n.AddLink(netsim.LinkConfig{Rate: 10e6, Delay: 10 * time.Millisecond, BufferBytes: 100_000})
	man := cc.NewManual(1e6)
	f := n.AddFlow(netsim.FlowConfig{Name: "ramp", Path: []*netsim.Link{l},
		CC: func() cc.Algorithm { return man }})
	n.Run(5 * time.Second)
	man.SetRate(9e6) // jumps to ~fair share at t=5s
	n.Run(15 * time.Second)

	got := ConvergenceTime(f, 0, 9e6, 0.8, 3)
	if got < 4*time.Second || got > 7*time.Second {
		t.Fatalf("convergence time %v, want ~5s", got)
	}
	if ConvergenceTime(f, 0, 100e6, 0.8, 3) != -1 {
		t.Fatal("unreachable share should report -1")
	}
}

// TestConvergenceTimeHoldBoundary: exactly `hold` qualifying samples succeed;
// one more than the series can supply reports -1.
func TestConvergenceTimeHoldBoundary(t *testing.T) {
	n := netsim.New(netsim.Config{Seed: 3})
	l := n.AddLink(netsim.LinkConfig{Rate: 10e6, Delay: 10 * time.Millisecond, BufferBytes: 100_000})
	f := n.AddFlow(netsim.FlowConfig{Name: "steady", Path: []*netsim.Link{l},
		CC: func() cc.Algorithm { return cc.NewManual(9e6) }})
	n.Run(10 * time.Second)

	target := 0.8 * 9e6
	qualifying := 0
	for _, p := range f.Series() {
		if p.ThroughputBps >= target {
			qualifying++
		}
	}
	if qualifying < 2 {
		t.Fatalf("test setup: only %d qualifying samples", qualifying)
	}
	if got := ConvergenceTime(f, 0, 9e6, 0.8, qualifying); got < 0 {
		t.Fatalf("hold == qualifying samples (%d) should converge, got %v", qualifying, got)
	}
	if got := ConvergenceTime(f, 0, 9e6, 0.8, qualifying+1); got != -1 {
		t.Fatalf("hold > qualifying samples should report -1, got %v", got)
	}
}

// TestConvergenceTimePreStart: samples before `start` must be ignored — both
// for the clock origin and for run counting.
func TestConvergenceTimePreStart(t *testing.T) {
	n := netsim.New(netsim.Config{Seed: 4})
	l := n.AddLink(netsim.LinkConfig{Rate: 10e6, Delay: 10 * time.Millisecond, BufferBytes: 100_000})
	man := cc.NewManual(9e6)
	f := n.AddFlow(netsim.FlowConfig{Name: "fade", Path: []*netsim.Link{l},
		CC: func() cc.Algorithm { return man }})
	n.Run(5 * time.Second)
	man.SetRate(0.5e6) // collapses after t=5s
	n.Run(15 * time.Second)

	// Fast only before start: the pre-start samples must not count toward
	// convergence measured from t=5s.
	if got := ConvergenceTime(f, 5*time.Second, 9e6, 0.8, 3); got != -1 {
		t.Fatalf("pre-start samples leaked into the hold run: got %v, want -1", got)
	}
	// Measured from t=0 the same flow converges almost immediately, and the
	// reported time is relative to start (never negative).
	got := ConvergenceTime(f, 0, 9e6, 0.8, 3)
	if got < 0 || got > 2*time.Second {
		t.Fatalf("convergence from t=0 = %v, want small and non-negative", got)
	}
}
