package main

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cc"
	"repro/internal/core"
	"repro/internal/exp"
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/telemetry"
)

// The traced sweep rebuilds the figures' scenarios so that every flow's
// controller can be wrapped with timers; the constants and builders below
// mirror the figure functions' defaults, and the traced rows must match the
// untraced fingerprint.
const (
	fig7Stagger   = 60 * time.Second
	fig7Lifetime  = 180 * time.Second
	fig8Rate      = 100e6
	fig8Stagger   = 60 * time.Second
	fig8Lifetime  = 300 * time.Second
	fig9Rate      = 100e6
	fig9Lifetime  = 120 * time.Second
	seriesEvery   = 5 * time.Second
	fig7BufferBDP = 1.5
)

var (
	fig8BaseRTTs = []time.Duration{70, 110, 150, 190, 210} // ms
	fig9RTTs     = []time.Duration{50, 100, 150, 200, 250, 300}
	fig9Schemes  = []string{"jury", "aurora", "orca", "vivace", "bbr", "vegas", "astraea"}
)

// nameHash is the FNV-1a hash the figure functions derive seeds with.
func nameHash(s string) uint64 {
	var h uint64 = 1469598103934665603
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}

func fig7Scenario(p exp.Fig7Panel, seed uint64) exp.Scenario {
	s := exp.Scenario{
		Name:        fmt.Sprintf("3x%s@%0.0fMbps", p.Scheme, p.Rate/1e6),
		Rate:        p.Rate,
		OneWayDelay: p.RTT / 2,
		LossRate:    p.Loss,
		Seed:        seed + nameHash(p.ID),
		Horizon:     2*fig7Stagger + fig7Lifetime,
	}
	s.BufferBytes = s.BufferBDP(fig7BufferBDP)
	for i := 0; i < 3; i++ {
		s.Flows = append(s.Flows, exp.FlowSpec{Scheme: p.Scheme, Start: time.Duration(i) * fig7Stagger, Duration: fig7Lifetime})
	}
	return s
}

func fig8Scenario(seed uint64) exp.Scenario {
	s := exp.Scenario{Name: "fig8-rtt-fairness", Rate: fig8Rate, OneWayDelay: 5 * time.Millisecond, Seed: seed}
	s.BufferBytes = int(1.0 * fig8Rate / 8 * 0.210)
	s.Horizon = time.Duration(len(fig8BaseRTTs)-1)*fig8Stagger + fig8Lifetime
	for i, ms := range fig8BaseRTTs {
		s.Flows = append(s.Flows, exp.FlowSpec{
			Scheme:      "jury",
			Start:       time.Duration(i) * fig8Stagger,
			ExtraOneWay: ms*time.Millisecond/2 - s.OneWayDelay,
		})
	}
	return s
}

func fig9Scenarios(seed uint64) []exp.Scenario {
	var jobs []exp.Scenario
	for _, scheme := range fig9Schemes {
		for _, ms := range fig9RTTs {
			rtt := ms * time.Millisecond
			s := exp.Scenario{
				Name:        fmt.Sprintf("fig9-%s-%v", scheme, rtt),
				Rate:        fig9Rate,
				OneWayDelay: rtt / 2,
				Seed:        seed + nameHash(scheme) + uint64(rtt),
				Horizon:     fig9Lifetime,
				Flows:       []exp.FlowSpec{{Scheme: scheme}, {Scheme: "cubic"}},
			}
			s.BufferBytes = s.BufferBDP(1)
			jobs = append(jobs, s)
		}
	}
	return jobs
}

// seriesRows averages flow series into the figures' plotted points.
func seriesRows(flows []*exp.FlowSummary) []exp.FlowSeriesRow {
	var rows []exp.FlowSeriesRow
	for _, f := range flows {
		var acc float64
		var n int
		next := seriesEvery
		for _, p := range f.Series() {
			acc += p.ThroughputBps
			n++
			if p.T >= next {
				rows = append(rows, exp.FlowSeriesRow{T: next, Flow: f.Name(), Mbps: acc / float64(n) / 1e6})
				acc, n = 0, 0
				next += seriesEvery
			}
		}
	}
	return rows
}

func fig7Row(p exp.Fig7Panel, r *exp.RunResult) *exp.Fig7Result {
	last := r.FlowSummaries[len(r.FlowSummaries)-1]
	return &exp.Fig7Result{
		Panel:               p,
		Jain:                metrics.TimewiseJain(r.FlowSummaries),
		Utilization:         r.Utilization,
		LastJoinConvergence: metrics.ConvergenceTime(last, 2*fig7Stagger, p.Rate/3, 0.8, 5),
		Series:              seriesRows(r.FlowSummaries),
	}
}

func fig8Row(r *exp.RunResult) *exp.Fig8Result {
	out := &exp.Fig8Result{Series: seriesRows(r.FlowSummaries)}
	from, to := time.Duration(len(fig8BaseRTTs)-1)*fig8Stagger+fig8Lifetime/3, r.Scenario.Horizon
	for _, f := range r.FlowSummaries {
		out.LateShares = append(out.LateShares, metrics.MeanThroughput(f, from, to))
		out.AvgRTTms = append(out.AvgRTTms, float64(metrics.MeanRTT(f, from, to))/1e6)
	}
	out.LateJain = metrics.JainIndex(out.LateShares)
	return out
}

func fig9Row(s exp.Scenario, r *exp.RunResult) exp.Fig9Row {
	from := fig9Lifetime / 3
	a := metrics.MeanThroughput(r.FlowSummaries[0], from, fig9Lifetime)
	b := metrics.MeanThroughput(r.FlowSummaries[1], from, fig9Lifetime)
	row := exp.Fig9Row{Scheme: s.Flows[0].Scheme, RTT: 2 * s.OneWayDelay, Ratio: math.Inf(1)}
	if b > 0 {
		row.Ratio = a / b
	}
	return row
}

// layerTotals accumulates the per-call layers of traced scenario runs.
type layerTotals struct {
	cc, decide      callTimer
	runNs           int64 // worker time inside exp.Run
	packets, losses int64
}

func (t *layerTotals) add(o *layerTotals) {
	t.cc.add(&o.cc)
	t.decide.add(&o.decide)
	t.runNs += o.runNs
	t.packets += o.packets
	t.losses += o.losses
}

// timedScenario replaces every flow's controller with a timed one built
// from the same seed: Jury gets a timed policy inside, every scheme a timed
// controller around it. The returned timers fill in as the scenario runs.
func timedScenario(s exp.Scenario) (exp.Scenario, *scenarioTimers) {
	st := &scenarioTimers{}
	flows := make([]exp.FlowSpec, len(s.Flows))
	for i, fs := range s.Flows {
		scheme := fs.Scheme
		fs.CC = func(seed uint64) cc.Algorithm {
			var alg cc.Algorithm
			if scheme == "jury" {
				p := &timedPolicy{inner: core.NewReferencePolicy()}
				st.policies = append(st.policies, p)
				c := core.DefaultConfig()
				c.Seed = seed
				alg = core.New(c, p)
			} else {
				var err error
				if alg, err = exp.NewScheme(scheme, seed); err != nil {
					panic(err) // the scheme names come from the figure definitions
				}
			}
			w, t := timeCC(alg)
			st.ccs = append(st.ccs, t)
			return w
		}
		flows[i] = fs
	}
	s.Flows = flows
	return s, st
}

type scenarioTimers struct {
	ccs      []*callTimer
	policies []*timedPolicy
}

func (st *scenarioTimers) totals() layerTotals {
	var t layerTotals
	for _, c := range st.ccs {
		t.cc.add(c)
	}
	for _, p := range st.policies {
		t.decide.add(&p.t)
	}
	return t
}

// runTraced runs scenarios on maxWorkers goroutines in input order, as the
// figure functions' runner does, with one span per scenario run.
func runTraced(tr *tracer, parent int, jobs []exp.Scenario, tot *layerTotals) ([]*exp.RunResult, error) {
	results := make([]*exp.RunResult, len(jobs))
	errs := make([]error, len(jobs))
	parts := make([]layerTotals, len(jobs))
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < maxWorkers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(jobs) {
					return
				}
				job, timers := timedScenario(jobs[i])
				id := tr.begin("run:"+job.Name, parent)
				start := time.Now()
				results[i], errs[i] = exp.Run(job)
				part := timers.totals()
				part.runNs = int64(time.Since(start))
				if r := results[i]; r != nil {
					for _, f := range r.FlowSummaries {
						part.packets += f.Stats().SentPackets
						part.losses += f.Stats().LostPackets
					}
				}
				parts[i] = part
				tr.end(id, map[string]float64{
					"cc.calls": float64(part.cc.calls), "cc.ns": float64(part.cc.ns),
					"core.decide_calls": float64(part.decide.calls), "core.decide_ns": float64(part.decide.ns),
				})
			}
		}()
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			return nil, err
		}
		tot.add(&parts[i])
	}
	return results, nil
}

// tracedSweep runs the sweep with timed controllers and rebuilds its rows.
func tracedSweep(cfg config, parent int, tot *layerTotals) (*sweepRows, error) {
	panels := exp.Fig7Panels()
	rows := &sweepRows{}

	id := cfg.tr.begin("figure:fig7", parent)
	jobs := make([]exp.Scenario, len(panels))
	for i, p := range panels {
		jobs[i] = fig7Scenario(p, cfg.seed)
	}
	res, err := runTraced(cfg.tr, id, jobs, tot)
	if err != nil {
		return nil, err
	}
	for i, p := range panels {
		rows.f7 = append(rows.f7, fig7Row(p, res[i]))
	}
	cfg.tr.end(id, nil)

	id = cfg.tr.begin("figure:fig8", parent)
	res, err = runTraced(cfg.tr, id, []exp.Scenario{fig8Scenario(cfg.seed)}, tot)
	if err != nil {
		return nil, err
	}
	rows.f8 = fig8Row(res[0])
	cfg.tr.end(id, nil)

	id = cfg.tr.begin("figure:fig9", parent)
	jobs = fig9Scenarios(cfg.seed)
	res, err = runTraced(cfg.tr, id, jobs, tot)
	if err != nil {
		return nil, err
	}
	for i, s := range jobs {
		rows.f9 = append(rows.f9, fig9Row(s, res[i]))
	}
	cfg.tr.end(id, nil)
	return rows, nil
}

// probeRun times one run of Fig. 7 panel a, the probe the store's write
// cost and each instrument's cost are measured on, and fingerprints its row.
func probeRun(seed uint64) (time.Duration, string, error) {
	start := time.Now()
	r, err := exp.Fig7Convergence(exp.Fig7Panels()[0], exp.Fig7Options{Seed: seed})
	wall := time.Since(start)
	if err != nil {
		return 0, "", err
	}
	return wall, (&sweepRows{f7: []*exp.Fig7Result{r}, f8: &exp.Fig8Result{}}).fingerprint(), nil
}

// tracePaperSweep is the traced paper-sweep run: an untraced cold pass into
// a store (the reference wall time and fingerprint), an unwrapped warm pass
// for the store metrics, the traced cold pass, and paired probe runs for
// the store's write cost and each instrument's cost.
func tracePaperSweep(cfg config) (*result, error) {
	res := newResult()
	m := res.perLayer
	zeroLayers(m)
	tr := cfg.tr
	root := tr.begin("paper-sweep", 0)
	storeDir := filepath.Join(cfg.dir, "store")

	id := tr.begin("pass:cold-untraced", root)
	cold, coldWall, _, err := coldPass(cfg.seed, storeDir)
	if err != nil {
		return nil, err
	}
	tr.end(id, nil)
	fp := cold.fingerprint()
	runs := int64(cold.runs())
	res.checks.op(runs)
	if err := checkReference(&res.checks, "paper-sweep", cfg.seed, fp, runs); err != nil {
		return nil, err
	}

	id = tr.begin("pass:warm", root)
	start := time.Now()
	st, err := openStore(storeDir)
	if err != nil {
		return nil, err
	}
	m["runstore.open_s"] = time.Since(start).Seconds()
	m["runstore.records"] = float64(st.Len())
	if err := st.Close(); err != nil {
		return nil, err
	}
	if fi, err := os.Stat(filepath.Join(storeDir, "wal.log")); err == nil {
		m["runstore.wal_bytes"] = float64(fi.Size())
	}
	var appends int64
	err = sweepPasses(cfg.seed, storeDir, true, 1, func(rows *sweepRows, _ time.Duration, a int64) {
		appends = a
		checkWarm(&res.checks, fp, rows, a, runs)
	})
	if err != nil {
		return nil, err
	}
	tr.end(id, nil)
	m["runstore.hit_ratio"] = 1 - float64(appends)/float64(runs)

	id = tr.begin("pass:cold-traced", root)
	var tot layerTotals
	start = time.Now()
	traced, err := tracedSweep(cfg, id, &tot)
	if err != nil {
		return nil, err
	}
	tracedWall := time.Since(start)
	tr.end(id, nil)
	res.checks.op(runs)
	res.checks.expect(traced.fingerprint() == fp, runs, "timed controllers changed the sweep's rows")

	m["trace.overhead_ratio"] = tracedWall.Seconds() / coldWall.Seconds()
	m["exp.runs"] = float64(runs)
	m["exp.parallel_efficiency"] = float64(tot.runNs) / (maxWorkers * float64(tracedWall))
	m["netsim.packets"] = float64(tot.packets)
	m["netsim.drops"] = float64(tot.losses)
	m["netsim.run_self_s"] = float64(tot.runNs-tot.cc.ns) / 1e9
	m["cc.calls"] = float64(tot.cc.calls)
	m["cc.ns_per_call"] = float64(tot.cc.ns) / float64(max(tot.cc.calls, 1))
	m["cc.self_s"] = float64(tot.cc.ns-tot.decide.ns) / 1e9
	m["core.decide_calls"] = float64(tot.decide.calls)
	m["core.decide_ns"] = float64(tot.decide.ns) / float64(max(tot.decide.calls, 1))

	if err := probeCosts(cfg, root, res); err != nil {
		return nil, err
	}
	tr.end(root, nil)
	return res, nil
}

// probePairs is how many bare/attached pairs each probe variant runs.
const probePairs = 3

// probeCosts runs the probe with the store and with each instrument
// attached, each run paired with a bare run just before it, and reports the
// median of the pairs. Every variant must produce the bare probe's row.
func probeCosts(cfg config, root int, res *result) error {
	m := res.perLayer
	variants := []struct {
		name, metric string
		attach       func() (detach func(), err error)
	}{
		{"store", "runstore.put_cost_s", func() (func(), error) {
			st, err := openStore(filepath.Join(cfg.dir, "probe-store"))
			if err != nil {
				return nil, err
			}
			exp.AttachStore(st, false)
			// The probe store is scratch, removed with the run directory.
			return func() { exp.AttachStore(nil, false); st.Close() }, nil
		}},
		{"simcheck", "simcheck.cost_ratio", func() (func(), error) {
			exp.ForceCheck = true
			return func() { exp.ForceCheck = false }, nil
		}},
		{"obs", "obs.cost_ratio", func() (func(), error) {
			exp.Obs = obs.New(obs.Options{})
			return func() { exp.Obs = nil }, nil
		}},
		{"telemetry", "telemetry.cost_ratio", func() (func(), error) {
			hub, err := telemetry.Setup(telemetry.Options{Enabled: true})
			if err != nil {
				return nil, err
			}
			exp.Telemetry = hub
			// The hub has no trace sink or debug server to flush or stop.
			return func() { exp.Telemetry = nil; hub.Close() }, nil
		}},
	}
	for _, v := range variants {
		id := cfg.tr.begin("probe:"+v.name, root)
		var diffs, ratios []float64
		for i := 0; i < probePairs; i++ {
			bare, fp, err := probeRun(cfg.seed)
			if err != nil {
				return err
			}
			detach, err := v.attach()
			if err != nil {
				return err
			}
			wall, got, err := probeRun(cfg.seed)
			detach()
			if err != nil {
				return err
			}
			res.checks.op(1)
			res.checks.expect(got == fp, 1, "probe with %s attached changed its row", v.name)
			diffs = append(diffs, (wall - bare).Seconds())
			ratios = append(ratios, wall.Seconds()/bare.Seconds())
		}
		cfg.tr.end(id, nil)
		if v.name == "store" {
			m[v.metric] = median(diffs)
		} else {
			m[v.metric] = median(ratios)
		}
	}
	return nil
}
