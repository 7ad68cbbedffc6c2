package agentrpc

import (
	"errors"
	"math"
	"net"
	"slices"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/nn"
	"repro/internal/simcore"
)

// nanPolicy always answers NaN — a swap candidate the health gate must veto.
type nanPolicy struct{}

func (nanPolicy) Decide([]float64) (float64, float64) { return math.NaN(), 0 }

// probeBomb panics on any decision — poisoned weights at their worst.
type probeBomb struct{}

func (probeBomb) Decide([]float64) (float64, float64) { panic("poisoned candidate") }

func testActor(t *testing.T, dim int) *core.NNPolicy {
	t.Helper()
	net := nn.NewMLP(simcore.NewRNG(7), []int{dim, 32, 32, 2}, []nn.Activation{nn.ReLU, nn.ReLU, nn.Tanh})
	return &core.NNPolicy{Net: net}
}

func TestHotSwapServesNewVersion(t *testing.T) {
	srv, err := Serve("127.0.0.1:0", constPolicy{0.1, 0.2})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	cl, err := Dial(srv.Addr(), constPolicy{-9, -9})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	if mu, delta := cl.Decide([]float64{1}); mu != 0.1 || delta != 0.2 {
		t.Fatalf("v1 answered (%v, %v)", mu, delta)
	}
	id, err := srv.Swap(constPolicy{0.3, 0.4})
	if err != nil {
		t.Fatal(err)
	}
	if id != 2 || srv.PolicyVersion() != 2 || srv.Swaps() != 1 {
		t.Fatalf("swap bookkeeping: id=%d version=%d swaps=%d", id, srv.PolicyVersion(), srv.Swaps())
	}
	if mu, delta := cl.Decide([]float64{1}); mu != 0.3 || delta != 0.4 {
		t.Fatalf("post-swap decision (%v, %v), want (0.3, 0.4)", mu, delta)
	}
}

func TestSwapHealthGateRejectsUnhealthyCandidates(t *testing.T) {
	srv, err := Serve("127.0.0.1:0", constPolicy{0.1, 0.2})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	for _, bad := range []Policy{nanPolicy{}, probeBomb{}} {
		if _, err := srv.Swap(bad); !errors.Is(err, ErrUnhealthyPolicy) {
			t.Fatalf("unhealthy candidate %T accepted (err=%v)", bad, err)
		}
	}
	if srv.PolicyVersion() != 1 || srv.Swaps() != 0 {
		t.Fatalf("rejected swaps mutated serving state: version=%d swaps=%d",
			srv.PolicyVersion(), srv.Swaps())
	}
	// The original policy must still be serving.
	cl, err := Dial(srv.Addr(), constPolicy{-9, -9})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if mu, _ := cl.Decide([]float64{1}); mu != 0.1 {
		t.Fatalf("v1 not serving after rejected swaps: mu=%v", mu)
	}
}

func TestRuntimeNonFiniteRollsBack(t *testing.T) {
	srv, err := Serve("127.0.0.1:0", constPolicy{0.1, 0.2})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	// The trap policy is finite on the canonical probe states (small values)
	// but NaNs once the first state value exceeds the trigger — the failure
	// mode a load-time health gate cannot catch.
	trap := core.NonFiniteProbePolicy{Inner: constPolicy{0.3, 0.4}, Trigger: 100}
	if _, err := srv.Swap(trap); err != nil {
		t.Fatalf("trap policy failed the probe: %v", err)
	}
	cl, err := Dial(srv.Addr(), constPolicy{-9, -9})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	if mu, _ := cl.Decide([]float64{1}); mu != 0.3 {
		t.Fatalf("v2 not serving: mu=%v", mu)
	}
	// Trip the guard: the poisoned decision is suppressed (client falls
	// back), the version rolls back automatically.
	if mu, delta := cl.Decide([]float64{1000}); mu != -9 || delta != -9 {
		t.Fatalf("poisoned decision leaked to the datapath: (%v, %v)", mu, delta)
	}
	if srv.NonFinite() != 1 || srv.Rollbacks() != 1 {
		t.Fatalf("guard bookkeeping: nonfinite=%d rollbacks=%d", srv.NonFinite(), srv.Rollbacks())
	}
	if srv.PolicyVersion() != 1 {
		t.Fatalf("still serving version %d after rollback", srv.PolicyVersion())
	}
	if mu, _ := cl.Decide([]float64{1000}); mu != 0.1 {
		t.Fatalf("rolled-back version not serving: mu=%v", mu)
	}
}

// TestBatchCoalescing: concurrent clients against an NNPolicy must be served
// through the batched GEMM path (fewer executions than requests) and every
// batched decision must match the scalar path within float tolerance.
func TestBatchCoalescing(t *testing.T) {
	const dim = 16
	srv, err := ServeConfig("127.0.0.1:0", testActor(t, dim), Config{MaxBatch: 64, BatchDelay: 2 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	const workers = 8
	const perWorker = 50
	// Each worker verifies against its own deterministically-identical
	// network: MLP forward scratch is not goroutine-safe, and the serving
	// copy is concurrently exercised by the daemon's batcher.
	locals := make([]*core.NNPolicy, workers)
	for w := range locals {
		locals[w] = testActor(t, dim)
	}
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			cl, err := DialConfig(srv.Addr(), constPolicy{-9, -9}, ClientConfig{Timeout: 2 * time.Second})
			if err != nil {
				errs <- err
				return
			}
			defer cl.Close()
			state := make([]float64, dim)
			for i := 0; i < perWorker; i++ {
				for j := range state {
					state[j] = 0.05*float64(w+1) - 0.01*float64(i%7) + 0.001*float64(j)
				}
				mu, delta := cl.Decide(state)
				wantMu, wantDelta := locals[w].Decide(state)
				if math.Abs(mu-wantMu) > 1e-9 || math.Abs(delta-wantDelta) > 1e-9 {
					errs <- errors.New("batched decision diverged from the scalar path")
					return
				}
			}
			errs <- nil
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	total := int64(workers * perWorker)
	if srv.BatchedRequests() != total {
		t.Fatalf("batched %d requests, want %d", srv.BatchedRequests(), total)
	}
	if srv.Batches() >= total {
		t.Fatalf("%d executions for %d requests — no coalescing happened", srv.Batches(), total)
	}
	if srv.Decisions() != total {
		t.Fatalf("decisions %d, want %d", srv.Decisions(), total)
	}
}

// TestBatchFullFlushesEarly: with a prohibitive latency budget, filling the
// batch must flush it immediately — the budget is a deadline, not a sleep.
func TestBatchFullFlushesEarly(t *testing.T) {
	const dim = 8
	srv, err := ServeConfig("127.0.0.1:0", testActor(t, dim),
		Config{MaxBatch: 4, BatchDelay: 10 * time.Second, WaitTimeout: 5 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	start := time.Now()
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			cl, err := DialConfig(srv.Addr(), constPolicy{-9, -9}, ClientConfig{Timeout: 4 * time.Second})
			if err != nil {
				t.Error(err)
				return
			}
			defer cl.Close()
			state := make([]float64, dim)
			if mu, _ := cl.Decide(state); mu == -9 {
				t.Error("decision fell back — batch never flushed")
			}
		}()
	}
	wg.Wait()
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("4 decisions with a 10s budget took %v — batch-full flush broken", elapsed)
	}
}

// batchRecorder is a gatePolicy that also serves the batched path and
// records the row count of every execution.
type batchRecorder struct {
	gatePolicy
	mu   sync.Mutex
	rows []int
}

func (p *batchRecorder) InputDim() int { return 1 }

func (p *batchRecorder) DecideBatch(states []float64, rows int, mu, delta []float64) {
	p.mu.Lock()
	p.rows = append(p.rows, rows)
	p.mu.Unlock()
	for i := 0; i < rows; i++ {
		mu[i], delta[i] = p.Decide(states[i : i+1])
	}
}

// TestWorkConservingCoalescing: with the default (zero) BatchDelay, the
// requests that queue while a batch executes form the next batch — exactly
// what was queued, split at MaxBatch — with no timer involved. The first
// batch is parked in the policy so the queue depth is known exactly.
func TestWorkConservingCoalescing(t *testing.T) {
	for _, tc := range []struct {
		name     string
		maxBatch int
		queued   int
		want     []int // rows per execution, the parked jam first
	}{
		{"under-max-batch", 64, 5, []int{1, 5}},
		{"over-max-batch", 4, 10, []int{1, 4, 4, 2}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			pol := &batchRecorder{gatePolicy: gatePolicy{gate: make(chan struct{}), entered: make(chan struct{}, 1)}}
			srv, err := ServeConfig("127.0.0.1:0", pol, Config{MaxBatch: tc.maxBatch, WaitTimeout: time.Minute})
			if err != nil {
				t.Fatal(err)
			}
			defer srv.Close()
			send := func(v float64) net.Conn {
				conn, err := net.Dial("tcp", srv.Addr())
				if err != nil {
					t.Fatal(err)
				}
				if _, err := conn.Write(appendRequest(nil, []float64{v})); err != nil {
					t.Fatal(err)
				}
				return conn
			}

			conns := []net.Conn{send(jamMarker)}
			defer func() {
				for _, c := range conns {
					c.Close()
				}
			}()
			<-pol.entered
			for i := 0; i < tc.queued; i++ {
				conns = append(conns, send(1))
			}
			for srv.QueueDepth() != tc.queued {
				time.Sleep(time.Millisecond)
			}
			close(pol.gate)
			var buf [respSize]byte
			for i, c := range conns {
				if status, mu, _, err := readResponse(c, &buf); err != nil || status != statusOK || mu != 0.5 {
					t.Fatalf("conn %d answered status %d mu %v err %v", i, status, mu, err)
				}
			}

			if got, want := srv.Batches(), int64(len(tc.want)); got != want {
				t.Errorf("Batches() = %d, want %d", got, want)
			}
			if got, want := srv.BatchedRequests(), int64(1+tc.queued); got != want {
				t.Errorf("BatchedRequests() = %d, want %d", got, want)
			}
			pol.mu.Lock()
			defer pol.mu.Unlock()
			if !slices.Equal(pol.rows, tc.want) {
				t.Errorf("batch rows %v, want %v", pol.rows, tc.want)
			}
		})
	}
}

// TestDefaultBatchDelayIsZero: the zero Config must select work-conserving
// batching, not a coalescing wait.
func TestDefaultBatchDelayIsZero(t *testing.T) {
	if d := (Config{}).withDefaults().BatchDelay; d != 0 {
		t.Fatalf("default BatchDelay = %v, want 0", d)
	}
	if d := (Config{BatchDelay: -time.Millisecond}).withDefaults().BatchDelay; d != 0 {
		t.Fatalf("negative BatchDelay normalized to %v, want 0", d)
	}
}

// TestServingDeadlineAnswersERR: a policy execution outliving WaitTimeout
// must cost that request a typed ERR (client falls back), never a wedged
// connection — and the late batcher result lands harmlessly in the
// abandoned pending.
func TestServingDeadlineAnswersERR(t *testing.T) {
	gate := make(chan struct{})
	srv, err := ServeConfig("127.0.0.1:0", gatePolicy{gate: gate}, Config{MaxBatch: 1, WaitTimeout: 30 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	cl, err := DialConfig(srv.Addr(), constPolicy{0.25, 0.75}, ClientConfig{Timeout: time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	if mu, delta := cl.Decide([]float64{jamMarker}); mu != 0.25 || delta != 0.75 {
		t.Fatalf("jammed decision answered (%v, %v), want the fallback", mu, delta)
	}
	if srv.Timeouts() != 1 {
		t.Fatalf("server recorded %d serving timeouts, want 1", srv.Timeouts())
	}
	close(gate)
	// The same connection must serve the next (healthy) request.
	deadline := time.Now().Add(5 * time.Second)
	for {
		if mu, _ := cl.Decide([]float64{1}); mu == 0.5 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("connection never served again after a serving timeout")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestDrainAnswersInFlight: a graceful drain must answer the request already
// inside the batcher before shutting down.
func TestDrainAnswersInFlight(t *testing.T) {
	gate := make(chan struct{})
	srv, err := ServeConfig("127.0.0.1:0", gatePolicy{gate: gate}, Config{MaxBatch: 1, WaitTimeout: 5 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	cl, err := DialConfig(srv.Addr(), constPolicy{-9, -9}, ClientConfig{Timeout: 4 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	type result struct{ mu, delta float64 }
	got := make(chan result, 1)
	go func() {
		mu, delta := cl.Decide([]float64{jamMarker})
		got <- result{mu, delta}
	}()
	// Wait for the request to be inside the policy, then drain.
	deadline := time.Now().Add(5 * time.Second)
	for srv.ActiveConns() == 0 || srv.QueueDepth() > 0 {
		if time.Now().After(deadline) {
			t.Fatal("request never reached the batcher")
		}
		time.Sleep(2 * time.Millisecond)
	}
	time.Sleep(20 * time.Millisecond) // let the batcher enter Decide
	drained := make(chan error, 1)
	go func() { drained <- srv.Drain(5 * time.Second) }()
	time.Sleep(20 * time.Millisecond)
	close(gate)

	select {
	case r := <-got:
		if r.mu != 0.5 || r.delta != 0.5 {
			t.Fatalf("in-flight decision answered (%v, %v) during drain, want (0.5, 0.5)", r.mu, r.delta)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("in-flight decision never answered")
	}
	if err := <-drained; err != nil {
		t.Fatalf("drain: %v", err)
	}
	if srv.ActiveConns() != 0 {
		t.Fatalf("%d connections survived the drain", srv.ActiveConns())
	}
}

// TestTenantAccounting: hello-labelled connections are accounted per tenant
// and the OnTenant hook fires for existing and future labels exactly once.
func TestTenantAccounting(t *testing.T) {
	srv, err := Serve("127.0.0.1:0", echoPolicy{})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	alpha, err := DialConfig(srv.Addr(), constPolicy{}, ClientConfig{Tenant: "alpha"})
	if err != nil {
		t.Fatal(err)
	}
	defer alpha.Close()
	for i := 0; i < 3; i++ {
		alpha.Decide([]float64{1})
	}

	var mu sync.Mutex
	seen := map[string]int{}
	srv.OnTenant(func(name string) {
		mu.Lock()
		seen[name]++
		mu.Unlock()
	})

	beta, err := DialConfig(srv.Addr(), constPolicy{}, ClientConfig{Tenant: "beta"})
	if err != nil {
		t.Fatal(err)
	}
	defer beta.Close()
	for i := 0; i < 2; i++ {
		beta.Decide([]float64{1})
	}

	if got := srv.TenantDecisions("alpha"); got != 3 {
		t.Fatalf("alpha decisions %d, want 3", got)
	}
	if got := srv.TenantDecisions("beta"); got != 2 {
		t.Fatalf("beta decisions %d, want 2", got)
	}
	if got := srv.TenantDecisions("nobody"); got != 0 {
		t.Fatalf("unknown tenant reports %d decisions", got)
	}
	names := srv.Tenants()
	if len(names) != 2 || names[0] != "alpha" || names[1] != "beta" {
		t.Fatalf("tenants %v", names)
	}
	mu.Lock()
	defer mu.Unlock()
	if seen["alpha"] != 1 || seen["beta"] != 1 {
		t.Fatalf("tenant hook fired %v, want once per label", seen)
	}
}
