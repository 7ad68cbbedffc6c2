package main

import (
	"errors"
	"math"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"
)

// metricDef names one metric as BENCHMARK.json declares it.
type metricDef struct {
	Name, Unit, Better string
}

// endToEndMetrics are reported by every workload of an untraced run. Each
// workload gives them its own operation; README.md has the table.
var endToEndMetrics = []metricDef{
	{"setup_s", "s", "lower"},
	{"peak_rss_mb", "MB", "lower"},
	{"op_ms", "ms", "lower"},
	{"rate_per_s", "1/s", "higher"},
}

// perLayerMetrics are reported by every workload of a traced run; a layer a
// workload does not exercise reads 0.
var perLayerMetrics = []metricDef{
	{"simcore.events", "count", "higher"},
	{"simcore.barrier_rounds", "count", "lower"},
	{"simcore.fused_windows", "count", "higher"},
	{"simcore.shard_imbalance", "ratio", "lower"},
	{"netsim.packets", "count", "higher"},
	{"netsim.drops", "count", "lower"},
	{"netsim.run_self_s", "s", "lower"},
	{"netsim.ns_per_event", "ns", "lower"},
	{"netsim.build_s", "s", "lower"},
	{"netsim.bytes_per_flow", "B", "lower"},
	{"cc.calls", "count", "lower"},
	{"cc.ns_per_call", "ns", "lower"},
	{"cc.self_s", "s", "lower"},
	{"core.decide_calls", "count", "lower"},
	{"core.decide_ns", "ns", "lower"},
	{"nn.forward_rows", "count", "higher"},
	{"nn.forward_us", "us", "lower"},
	{"agentrpc.batches", "count", "lower"},
	{"agentrpc.batch_rows_mean", "rows", "higher"},
	{"agentrpc.execute_us", "us", "lower"},
	{"agentrpc.rtt_p50_us", "us", "lower"},
	{"agentrpc.overhead_us", "us", "lower"},
	{"agentrpc.fallbacks", "count", "lower"},
	{"agentrpc.busy", "count", "lower"},
	{"agentrpc.shed", "count", "lower"},
	{"agentrpc.timeouts", "count", "lower"},
	{"agentrpc.gen_lag_ms", "ms", "lower"},
	{"rl.collect_s", "s", "lower"},
	{"rl.update_s", "s", "lower"},
	{"rl.env_steps_per_s", "1/s", "higher"},
	{"rl.updates_per_s", "1/s", "higher"},
	{"rl.skipped_updates", "count", "lower"},
	{"runstore.open_s", "s", "lower"},
	{"runstore.records", "count", "higher"},
	{"runstore.wal_bytes", "B", "lower"},
	{"runstore.hit_ratio", "ratio", "higher"},
	{"runstore.put_cost_s", "s", "lower"},
	{"exp.runs", "count", "higher"},
	{"exp.parallel_efficiency", "ratio", "higher"},
	{"simcheck.cost_ratio", "ratio", "lower"},
	{"obs.cost_ratio", "ratio", "lower"},
	{"telemetry.cost_ratio", "ratio", "lower"},
	{"trace.overhead_ratio", "ratio", "lower"},
}

// zeroLayers sets every per-layer metric to 0, so a workload only fills the
// layers it runs.
func zeroLayers(m map[string]float64) {
	for _, d := range perLayerMetrics {
		m[d.Name] = 0
	}
}

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics (xs is sorted in place).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sort.Float64s(xs)
	pos := q * float64(len(xs)-1)
	lo := int(pos)
	if lo+1 >= len(xs) {
		return xs[len(xs)-1]
	}
	return xs[lo] + (pos-float64(lo))*(xs[lo+1]-xs[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// medianSetup runs a set-up reps times, each from a freshly collected heap,
// and returns the median of the durations it reports, in seconds.
func medianSetup(reps int, setup func() (time.Duration, error)) (float64, error) {
	ts := make([]float64, reps)
	for i := range ts {
		runtime.GC()
		d, err := setup()
		if err != nil {
			return 0, err
		}
		ts[i] = d.Seconds()
	}
	return median(ts), nil
}

// peakRSSMB reports the process's peak resident set (VmHWM) in MB. The
// heap's own peak is no steadier than the GC cycles that sample it: live
// heap peaks of 92 and 123 MB came out of identical paper sweeps.
func peakRSSMB() (float64, error) {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			return kb / 1e3, err
		}
	}
	return 0, errors.New("no VmHWM in /proc/self/status")
}
