package main

import (
	"encoding/json"
	"math"
	"os"
	"regexp"
	"testing"
	"time"

	"repro/internal/exp"
)

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// TestNamesMatchBenchmarkJSON checks metric and workload names and that the
// metric tables here are the ones BENCHMARK.json declares.
func TestNamesMatchBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []metricDef                   `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	for _, w := range spec.Workloads {
		if !nameRE.MatchString(w.Name) || workloads[w.Name] == nil {
			t.Errorf("workload %q is malformed or has no runner", w.Name)
		}
		seen[w.Name] = true
	}
	if len(seen) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, the benchmark runs %d", len(seen), len(workloads))
	}
	if len(spec.EndToEnd) != len(endToEndMetrics) || len(spec.PerLayer) != len(perLayerMetrics) {
		t.Fatalf("BENCHMARK.json declares %d+%d metrics, the benchmark reports %d+%d",
			len(spec.EndToEnd), len(spec.PerLayer), len(endToEndMetrics), len(perLayerMetrics))
	}
	for i, d := range endToEndMetrics {
		if spec.EndToEnd[i] != d {
			t.Errorf("end_to_end[%d] is %+v, the benchmark reports %+v", i, spec.EndToEnd[i], d)
		}
	}
	for i, d := range perLayerMetrics {
		if spec.PerLayer[i].Name != d.Name || spec.PerLayer[i].Unit != d.Unit {
			t.Errorf("per_layer[%d] is %+v, the benchmark reports %+v", i, spec.PerLayer[i], d)
		}
	}
	for _, d := range append(append([]metricDef{}, endToEndMetrics...), perLayerMetrics...) {
		if !nameRE.MatchString(d.Name) || seen[d.Name] {
			t.Errorf("metric name %q is malformed or used twice", d.Name)
		}
		seen[d.Name] = true
	}
}

func TestReferenceCheckFailsOnWrongFingerprint(t *testing.T) {
	var c checks
	if err := checkReference(&c, "mesh", defaultSeed, "0000000000000000", 3); err != nil {
		t.Fatal(err)
	}
	if c.failed != 3 {
		t.Fatalf("a wrong default-seed fingerprint failed %d operations, want 3", c.failed)
	}
	c = checks{}
	if err := checkReference(&c, "mesh", defaultSeed+1, "0000000000000000", 3); err != nil || c.failed != 0 {
		t.Fatalf("a seed without a reference failed %d operations (err %v)", c.failed, err)
	}
}

func smallSweep() *sweepRows {
	return &sweepRows{
		f7: []*exp.Fig7Result{{Panel: exp.Fig7Panels()[0], Jain: 0.9, Utilization: 0.95,
			Series: []exp.FlowSeriesRow{{T: time.Second, Flow: "jury-0", Mbps: 12.5}}}},
		f8: &exp.Fig8Result{LateShares: []float64{1, 2}, AvgRTTms: []float64{70, 110}, LateJain: 0.9},
		f9: []exp.Fig9Row{{Scheme: "jury", RTT: 50 * time.Millisecond, Ratio: 1.1}},
	}
}

func TestWarmCheckFailsOnMismatch(t *testing.T) {
	cold := smallSweep()
	fp := cold.fingerprint()

	var c checks
	checkWarm(&c, fp, smallSweep(), 0, 3)
	if c.failed != 0 {
		t.Fatalf("identical warm rows failed: %v", c.notes)
	}
	checkWarm(&c, fp, smallSweep(), 1, 3)
	if c.failed != 3 {
		t.Fatalf("a warm pass that simulated a run failed %d operations, want 3", c.failed)
	}
	for name, perturb := range map[string]func(*sweepRows){
		"fig9 ratio":  func(r *sweepRows) { r.f9[0].Ratio = math.Nextafter(r.f9[0].Ratio, 2) },
		"fig7 series": func(r *sweepRows) { r.f7[0].Series[0].Mbps = math.Nextafter(12.5, 13) },
		"fig8 share":  func(r *sweepRows) { r.f8.LateShares[1] = math.Nextafter(2, 3) },
		"fig7 jain":   func(r *sweepRows) { r.f7[0].Jain += 10 * jainQuantum },
	} {
		warm := smallSweep()
		perturb(warm)
		c = checks{}
		checkWarm(&c, fp, warm, 0, 3)
		if c.failed != 3 {
			t.Errorf("%s perturbed: warm check failed %d operations, want 3", name, c.failed)
		}
	}
}

// TestServeCheckCatchesFallback answers a step normally, then with the
// daemon gone, so every decision is served by the client's fallback.
func TestServeCheckCatchesFallback(t *testing.T) {
	rig, err := newServeRig(3, false)
	if err != nil {
		t.Fatal(err)
	}
	states, want := serveInputs(3, rig.net)
	ok := rig.step(200, 100*time.Millisecond, states, want)
	if ok.wrong != 0 || ok.fallbacks != 0 || ok.sent != 20 {
		t.Fatalf("healthy step: %+v", ok)
	}
	rig.srv.Close()
	bad := rig.step(200, 100*time.Millisecond, states, want)
	rig.close()
	if bad.fallbacks == 0 || bad.wrong != bad.fallbacks {
		t.Fatalf("step without a daemon: %d fallbacks, %d wrong decisions; want every fallback caught", bad.fallbacks, bad.wrong)
	}
}

// TestOpenLoopTimesFromDueTime feeds a worker slower than the offered rate:
// queued requests must be charged the time they waited, not just service.
func TestOpenLoopTimesFromDueTime(t *testing.T) {
	const n, service = 10, 4 * time.Millisecond
	t0 := time.Now()
	lat, _, served := openLoop(t0, 1000, n, 1, t0.Add(time.Minute), func(int, int) { time.Sleep(service) })
	for k := range served {
		if !served[k] {
			t.Fatalf("request %d not served", k)
		}
	}
	// Request k is due at k ms and cannot finish before (k+1)·4 ms.
	if floor := time.Duration(n)*service - (n-1)*time.Millisecond; lat[n-1] < floor {
		t.Fatalf("last request's latency %v, want at least %v measured from its due time", lat[n-1], floor)
	}

	_, _, served = openLoop(t0, 1000, n, 1, t0, func(int, int) { t.Error("request sent after the deadline") })
	for k, ok := range served {
		if ok {
			t.Fatalf("request %d served after the deadline", k)
		}
	}
}
