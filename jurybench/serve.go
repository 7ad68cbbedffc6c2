package main

import (
	"fmt"
	"math"
	"math/rand/v2"
	"sync"
	"time"

	"repro/internal/agentrpc"
	"repro/internal/core"
	"repro/internal/nn"
	"repro/internal/rl"
)

// The serve workload offers decisions open-loop at each rate of a fixed
// ladder. serveMidRate is where latency is reported, and its step gets
// serveMidShare of the run so that its percentiles rest on thousands of
// samples; the other steps share the rest. A rate is sustained when its p99
// is within serveLimit and every request was answered (no growing
// backlog). The ladder doubles per step so that no step sits near the
// daemon's capacity (about 1,600 decisions/s over two connections with the
// default 200 µs coalescing wait), where pass or fail would be decided by
// noise; the limit is far below the hundreds of milliseconds a saturated
// step reads and far above the few a stalled virtual CPU adds.
var serveLadder = []float64{250, 500, 1000, 2000, 4000}

const (
	serveMidRate  = 500
	serveMidShare = 0.6
	serveLimit    = 50 * time.Millisecond
	serveStateDim = 16 // the actor's input: 8 stacked (ΔRTT, loss) pairs
	servePool     = 1024
	serveTol      = 1e-12
)

// fallbackSentinel answers outside the policy's range (μ ∈ [−1, 1],
// δ ∈ [0, 1]), so a decision the client served locally fails the check.
type fallbackSentinel struct{}

func (fallbackSentinel) Decide([]float64) (float64, float64) { return 2, 2 }

// serveRig is a daemon on a loopback listener with two client connections.
type serveRig struct {
	net     *nn.MLP
	batch   *timedBatch // nil unless traced
	srv     *agentrpc.Server
	clients [maxWorkers]*agentrpc.Client
	rtts    [maxWorkers][]float64 // remote round trips from the latency hook, µs
}

// newServeRig initializes an actor of the trained policy's shape, serves it
// and dials the two connections.
func newServeRig(seed uint64, traced bool) (*serveRig, error) {
	c := rl.DefaultConfig(serveStateDim, 2)
	c.Seed = seed
	agent := rl.NewTD3(c)
	agent.Close()
	rig := &serveRig{net: agent.Actor}
	var served agentrpc.Policy = &core.NNPolicy{Net: rig.net}
	if traced {
		rig.batch = &timedBatch{NNPolicy: &core.NNPolicy{Net: rig.net}}
		served = rig.batch
	}
	srv, err := agentrpc.ServeConfig("127.0.0.1:0", served, agentrpc.Config{})
	if err != nil {
		return nil, err
	}
	rig.srv = srv
	for i := range rig.clients {
		cl, err := agentrpc.DialConfig(srv.Addr(), fallbackSentinel{}, agentrpc.ClientConfig{JitterSeed: uint64(i + 1)})
		if err != nil {
			rig.close()
			return nil, err
		}
		rig.clients[i] = cl
		if traced {
			cl.SetLatencyHook(func(d time.Duration, remote bool) {
				if remote {
					rig.rtts[i] = append(rig.rtts[i], float64(d)/1e3)
				}
			})
		}
	}
	return rig, nil
}

// close shuts the rig down; the loopback connections carry nothing that a
// failed close could lose.
func (r *serveRig) close() {
	for _, c := range r.clients {
		if c != nil {
			c.Close()
		}
	}
	r.srv.Close()
}

func (r *serveRig) fallbacks() (n int64) {
	for _, c := range r.clients {
		n += c.FallbackDecisions()
	}
	return n
}

// openLoop issues n requests, request k due at t0 + k/rate, from one
// generator to `workers` goroutines that call do(w, k). Each latency is
// measured from the request's due time, so a stall also delays every
// request queued behind it. Requests still queued at deadline are not sent
// (served[k] is false): the backlog grew faster than it drained. lag is how
// late the generator released each request.
func openLoop(t0 time.Time, rate float64, n, workers int, deadline time.Time, do func(w, k int)) (lat, lag []time.Duration, served []bool) {
	lat, lag, served = make([]time.Duration, n), make([]time.Duration, n), make([]bool, n)
	due := func(k int) time.Time { return t0.Add(time.Duration(float64(k) * 1e9 / rate)) }
	queue := make(chan int, n) // sized to the number of sends, so the generator never blocks
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for k := range queue {
				if time.Now().After(deadline) {
					continue
				}
				do(w, k)
				lat[k] = time.Since(due(k))
				served[k] = true
			}
		}(w)
	}
	for k := 0; k < n; k++ {
		if wait := time.Until(due(k)); wait > 0 {
			time.Sleep(wait)
		}
		lag[k] = time.Since(due(k))
		queue <- k
	}
	close(queue)
	wg.Wait()
	return lat, lag, served
}

// stepDuration is how long the ladder offers rate within a run of total.
func stepDuration(total time.Duration, rate float64) time.Duration {
	if rate == serveMidRate {
		return time.Duration(float64(total) * serveMidShare)
	}
	return time.Duration(float64(total) * (1 - serveMidShare) / float64(len(serveLadder)-1))
}

// stepResult is one ladder rate's outcome.
type stepResult struct {
	rate             float64
	sent, unserved   int
	p50, p99         float64 // ms from due time
	achieved         float64 // decisions answered per second
	lagP99           float64 // ms
	wrong, fallbacks int64
}

func (s stepResult) sustained() bool {
	return s.unserved == 0 && s.p99 <= float64(serveLimit)/1e6
}

// step offers rate decisions per second for dur and checks every answer
// against the in-process decision on the same state.
func (r *serveRig) step(rate float64, dur time.Duration, states [][]float64, want [][2]float64) stepResult {
	n := int(rate * dur.Seconds())
	mus, deltas := make([]float64, n), make([]float64, n)
	fb := r.fallbacks()
	t0 := time.Now().Add(time.Millisecond)
	var last [maxWorkers]time.Time
	lat, lag, served := openLoop(t0, rate, n, maxWorkers, t0.Add(dur+serveLimit), func(w, k int) {
		mus[k], deltas[k] = r.clients[w].Decide(states[k%len(states)])
		last[w] = time.Now()
	})
	res := stepResult{rate: rate, fallbacks: r.fallbacks() - fb}
	var ms, lags []float64
	end := t0
	for k, ok := range served {
		lags = append(lags, float64(lag[k])/1e6)
		if !ok {
			res.unserved++
			continue
		}
		res.sent++
		ms = append(ms, float64(lat[k])/1e6)
		w := want[k%len(states)]
		if math.Abs(mus[k]-w[0]) > serveTol || math.Abs(deltas[k]-w[1]) > serveTol {
			res.wrong++
		}
	}
	for _, t := range last {
		if t.After(end) {
			end = t
		}
	}
	res.p50, res.p99 = quantile(ms, 0.5), quantile(ms, 0.99)
	res.achieved = float64(res.sent) / end.Sub(t0).Seconds()
	res.lagP99 = quantile(lags, 0.99)
	return res
}

// serveInputs makes the state pool from the seed and the in-process
// decisions each state must get, from the benchmark's own policy instance
// over the served network (Decide and DecideBatch share scratch buffers, so
// the daemon's instance is never used here).
func serveInputs(seed uint64, net *nn.MLP) ([][]float64, [][2]float64) {
	rng := rand.New(rand.NewPCG(seed, 0x5e7e))
	local := &core.NNPolicy{Net: net}
	states := make([][]float64, servePool)
	want := make([][2]float64, servePool)
	for i := range states {
		s := make([]float64, serveStateDim)
		for j := range s {
			s[j] = rng.Float64()*2 - 1
		}
		states[i] = s
		want[i][0], want[i][1] = local.Decide(s)
	}
	return states, want
}

// runServe is the serve workload: the open-loop ladder against a daemon
// serving the actor over loopback TCP.
func runServe(cfg config) (*result, error) {
	if cfg.trace {
		return traceServe(cfg)
	}
	res := newResult()
	var rig *serveRig
	setup, err := medianSetup(setupReps, func() (time.Duration, error) {
		start := time.Now()
		r, err := newServeRig(cfg.seed, false)
		d := time.Since(start)
		if err != nil {
			return 0, err
		}
		if rig != nil {
			rig.close()
		}
		rig = r
		return d, nil
	})
	if err != nil {
		if rig != nil {
			rig.close()
		}
		return nil, err
	}
	defer rig.close()
	states, want := serveInputs(cfg.seed, rig.net)

	var mid, best stepResult
	for _, rate := range serveLadder {
		s := rig.step(rate, stepDuration(cfg.seconds, rate), states, want)
		res.checks.op(int64(s.sent))
		res.checks.expect(s.wrong == 0, s.wrong, "%d of %d decisions at %.0f/s differ from in-process inference (%d fallbacks)", s.wrong, s.sent, rate, s.fallbacks)
		res.name(fmt.Sprintf("serve_p50_ms@%.0f", rate), "ms", "lower", s.p50)
		res.name(fmt.Sprintf("serve_p99_ms@%.0f", rate), "ms", "lower", s.p99)
		if rate == serveMidRate {
			mid = s
		}
		if s.sustained() { // the ladder ascends, so the last one is the highest
			best = s
		}
	}
	rss, err := peakRSSMB()
	if err != nil {
		return nil, err
	}
	if best.rate == 0 {
		return nil, fmt.Errorf("no ladder rate met p99 <= %v with every request answered", serveLimit)
	}
	res.endToEnd["setup_s"] = setup
	res.endToEnd["peak_rss_mb"] = rss
	res.endToEnd["op_ms"] = mid.p50
	res.endToEnd["rate_per_s"] = best.achieved
	res.name("serve_p50_ms", "ms", "lower", mid.p50)
	res.name("serve_p99_ms", "ms", "lower", mid.p99)
	res.name("serve_max_rate", "1/s", "higher", best.achieved)
	res.name("fail_frac", "share", "lower", res.checks.failFrac())
	return res, nil
}

// traceServe is the traced serve run: one untraced step at the mid rate for
// reference, then the ladder against a daemon whose batched inference is
// timed and whose clients report each round trip.
func traceServe(cfg config) (*result, error) {
	res := newResult()
	m := res.perLayer
	zeroLayers(m)
	tr := cfg.tr
	root := tr.begin("serve", 0)
	plain, err := newServeRig(cfg.seed, false)
	if err != nil {
		return nil, err
	}
	states, want := serveInputs(cfg.seed, plain.net)
	id := tr.begin("step:untraced", root)
	ref := plain.step(serveMidRate, stepDuration(cfg.seconds, serveMidRate), states, want)
	plain.close()
	tr.end(id, nil)
	res.checks.op(int64(ref.sent))
	res.checks.expect(ref.wrong == 0, ref.wrong, "%d decisions differ from in-process inference", ref.wrong)

	rig, err := newServeRig(cfg.seed, true)
	if err != nil {
		return nil, err
	}
	var lagP99, midP50 float64
	for _, rate := range serveLadder {
		b0, r0 := rig.srv.Batches(), rig.batch.rows.Load()
		id := tr.begin(fmt.Sprintf("step:rate=%.0f", rate), root)
		s := rig.step(rate, stepDuration(cfg.seconds, rate), states, want)
		tr.end(id, map[string]float64{
			"p50_ms": s.p50, "p99_ms": s.p99, "sent": float64(s.sent), "unserved": float64(s.unserved),
			"agentrpc.batches": float64(rig.srv.Batches() - b0), "nn.forward_rows": float64(rig.batch.rows.Load() - r0),
		})
		res.checks.op(int64(s.sent))
		res.checks.expect(s.wrong == 0, s.wrong, "%d decisions at %.0f/s differ from in-process inference", s.wrong, rate)
		lagP99 = max(lagP99, s.lagP99)
		if rate == serveMidRate {
			midP50 = s.p50
		}
	}
	rig.close()
	tr.end(root, nil)

	b := rig.batch
	var rtts []float64
	for _, r := range rig.rtts {
		rtts = append(rtts, r...)
	}
	execUs := float64(b.rowNs.Load()) / float64(max(b.rows.Load(), 1)) / 1e3
	m["nn.forward_rows"] = float64(b.rows.Load())
	m["nn.forward_us"] = float64(b.ns.Load()) / float64(max(b.calls.Load(), 1)) / 1e3
	m["agentrpc.batches"] = float64(rig.srv.Batches())
	m["agentrpc.batch_rows_mean"] = float64(rig.srv.BatchedRequests()) / float64(max(rig.srv.Batches(), 1))
	m["agentrpc.execute_us"] = execUs
	m["agentrpc.rtt_p50_us"] = median(rtts)
	m["agentrpc.overhead_us"] = median(rtts) - execUs
	m["agentrpc.fallbacks"] = float64(rig.fallbacks())
	for _, c := range rig.clients {
		m["agentrpc.busy"] += float64(c.BusyResponses())
	}
	m["agentrpc.shed"] = float64(rig.srv.Shed())
	m["agentrpc.timeouts"] = float64(rig.srv.Timeouts())
	m["agentrpc.gen_lag_ms"] = lagP99
	m["trace.overhead_ratio"] = midP50 / ref.p50
	return res, nil
}
