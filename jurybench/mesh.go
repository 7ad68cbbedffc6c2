package main

import (
	"runtime"
	"time"

	"repro/internal/cc"
	"repro/internal/cc/cubic"
	"repro/internal/exp"
	"repro/internal/netsim"
)

// meshFlows and meshShards size the mesh workload: the parking-lot mesh at
// its default 10k flows, run on two shards.
const (
	meshFlows  = 10_000
	meshShards = 2
)

// meshRun is one build and run of the mesh.
type meshRun struct {
	build, run time.Duration
	sr         *netsim.ShardRun
	events     int64
	fp         string // events and every flow's lifetime stats
	bytesFlow  float64
}

func meshOptions(seed uint64, ccFn func(uint64) cc.Algorithm) exp.HugeOptions {
	return exp.HugeOptions{TotalFlows: meshFlows, Seed: seed, CC: ccFn}
}

// runMeshOnce builds and runs the mesh. With measureHeap it also measures
// the network's retained heap per flow, which costs two collections.
func runMeshOnce(o exp.HugeOptions, tap netsim.Tap, measureHeap bool) (*meshRun, error) {
	// Collect the previous run's garbage first, so that it is not collected
	// inside this run's timing; a fresh process would have none.
	runtime.GC()
	var before runtime.MemStats
	if measureHeap {
		runtime.ReadMemStats(&before)
	}
	start := time.Now()
	n, o := exp.BuildHuge(o)
	r := &meshRun{build: time.Since(start)}
	n.SetTap(tap)
	start = time.Now()
	sr, err := n.RunSharded(o.Horizon, meshShards)
	r.run = time.Since(start)
	if err != nil {
		return nil, err
	}
	r.sr = sr
	f := newFingerprint()
	for _, e := range sr.Executed {
		r.events += e
		f.u64(uint64(e))
	}
	for _, fl := range n.Flows() {
		s := fl.Stats()
		for _, v := range []int64{int64(s.Start), int64(s.ActiveFor), s.SentPackets, s.SentBytes, s.AckedPackets, s.AckedBytes, s.LostPackets, int64(s.MinRTT), int64(s.AvgRTT)} {
			f.u64(uint64(v))
		}
		f.f64(s.AvgThroughputBps)
		f.f64(s.LossRate)
	}
	r.fp = f.sum()
	if measureHeap {
		var after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&after)
		r.bytesFlow = float64(int64(after.HeapAlloc)-int64(before.HeapAlloc)) / float64(len(n.Flows()))
		runtime.KeepAlive(n)
	}
	return r, nil
}

// runMesh is the mesh workload: repeated builds and 2-shard runs of the
// 10k-flow parking-lot mesh with cubic flows.
func runMesh(cfg config) (*result, error) {
	if cfg.trace {
		return traceMesh(cfg)
	}
	res := newResult()
	o := meshOptions(cfg.seed, nil)
	first, err := runMeshOnce(o, nil, true)
	if err != nil {
		return nil, err
	}
	res.checks.op(1)
	if err := checkReference(&res.checks, "mesh", cfg.seed, first.fp, 1); err != nil {
		return nil, err
	}
	setup, err := medianSetup(setupReps, func() (time.Duration, error) {
		start := time.Now()
		n, _ := exp.BuildHuge(o)
		d := time.Since(start)
		runtime.KeepAlive(n)
		return d, nil
	})
	if err != nil {
		return nil, err
	}
	var runs []float64
	start := time.Now()
	for len(runs) < 5 || time.Since(start) < cfg.seconds {
		r, err := runMeshOnce(o, nil, false)
		if err != nil {
			return nil, err
		}
		runs = append(runs, r.run.Seconds())
		res.checks.op(1)
		res.checks.expect(r.fp == first.fp, 1, "mesh run %d differs from the first run of the seed", len(runs))
	}
	rss, err := peakRSSMB()
	if err != nil {
		return nil, err
	}
	runS := median(runs)
	eps := float64(first.events) / runS

	res.endToEnd["setup_s"] = setup
	res.endToEnd["peak_rss_mb"] = rss
	res.endToEnd["op_ms"] = runS * 1e3
	res.endToEnd["rate_per_s"] = eps
	res.name("mesh_events_per_s", "events/s", "higher", eps)
	res.name("mesh_bytes_per_flow", "B", "lower", first.bytesFlow)
	res.name("fail_frac", "share", "lower", res.checks.failFrac())
	return res, nil
}

// traceMesh is the traced mesh run: one untraced run for reference, then
// one with every flow's controller timed and a counting tap attached.
func traceMesh(cfg config) (*result, error) {
	res := newResult()
	m := res.perLayer
	zeroLayers(m)
	tr := cfg.tr
	root := tr.begin("mesh", 0)

	id := tr.begin("rep:untraced", root)
	plain, err := runMeshOnce(meshOptions(cfg.seed, nil), nil, true)
	if err != nil {
		return nil, err
	}
	tr.end(id, nil)
	res.checks.op(1)
	if err := checkReference(&res.checks, "mesh", cfg.seed, plain.fp, 1); err != nil {
		return nil, err
	}

	var timers []*callTimer
	timed := func(uint64) cc.Algorithm {
		alg, t := timeCC(cubic.New())
		timers = append(timers, t)
		return alg
	}
	tap := &countTap{}
	id = tr.begin("rep:traced", root)
	r, err := runMeshOnce(meshOptions(cfg.seed, timed), tap, false)
	if err != nil {
		return nil, err
	}
	var ccT callTimer
	for _, t := range timers {
		ccT.add(t)
	}
	tr.end(id, map[string]float64{"cc.calls": float64(ccT.calls), "cc.ns": float64(ccT.ns), "build_ns": float64(r.build), "run_ns": float64(r.run)})
	tr.end(root, nil)
	res.checks.op(1)
	res.checks.expect(r.fp == plain.fp, 1, "timed controllers or the counting tap changed the mesh run")

	shards := len(r.sr.Executed)
	var maxExec int64
	for _, e := range r.sr.Executed {
		maxExec = max(maxExec, e)
	}
	packets, drops := tap.totals()
	shardNs := float64(r.run) * float64(shards)
	m["simcore.events"] = float64(r.events)
	m["simcore.barrier_rounds"] = float64(r.sr.BarrierRounds)
	m["simcore.fused_windows"] = float64(r.sr.FusedWindows)
	m["simcore.shard_imbalance"] = float64(maxExec) / (float64(r.events) / float64(shards))
	m["netsim.packets"] = float64(packets)
	m["netsim.drops"] = float64(drops)
	m["netsim.run_self_s"] = (shardNs - float64(ccT.ns)) / 1e9
	m["netsim.ns_per_event"] = shardNs / float64(r.events)
	m["netsim.build_s"] = plain.build.Seconds()
	m["netsim.bytes_per_flow"] = plain.bytesFlow
	m["cc.calls"] = float64(ccT.calls)
	m["cc.ns_per_call"] = float64(ccT.ns) / float64(max(ccT.calls, 1))
	m["cc.self_s"] = float64(ccT.ns) / 1e9
	m["trace.overhead_ratio"] = r.run.Seconds() / plain.run.Seconds()
	return res, nil
}
