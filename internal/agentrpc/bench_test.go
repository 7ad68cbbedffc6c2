package agentrpc

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/nn"
	"repro/internal/simcore"
)

// BenchmarkServeBatch measures the daemon's execution core — the batched
// GEMM serving path — at the batch sizes that matter: 1 (a lone flow, pure
// per-request overhead), 64 (the default MaxBatch) and 1024 (a million-flow
// daemon under full coalescing). The figure of merit is decisions/sec; the
// batch sizes show how far one policy execution amortizes.
func BenchmarkServeBatch(b *testing.B) {
	const dim = 16
	net := nn.NewMLP(simcore.NewRNG(7), []int{dim, 32, 32, 2}, []nn.Activation{nn.ReLU, nn.ReLU, nn.Tanh})
	for _, rows := range []int{1, 64, 1024} {
		b.Run(fmt.Sprintf("batch=%d", rows), func(b *testing.B) {
			s := &Server{}
			s.pv.Store(newPolicyVersion(1, &core.NNPolicy{Net: net}, nil))
			batch := make([]*pending, rows)
			for i := range batch {
				p := newPending()
				p.state = make([]float64, dim)
				for j := range p.state {
					p.state[j] = 0.01*float64(i%17) + 0.001*float64(j)
				}
				batch[i] = p
			}
			xbuf := make([]float64, 0, rows*dim)
			mus := make([]float64, rows)
			deltas := make([]float64, rows)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				xbuf = s.execute(batch, xbuf, mus, deltas)
				for _, p := range batch {
					<-p.done // finish() hands each decision back via done
				}
			}
			b.StopTimer()
			for i, p := range batch {
				if p.status != statusOK {
					b.Fatalf("row %d finished with status %d", i, p.status)
				}
			}
			if got := s.batchedRequests.Load(); got != int64(b.N*rows) {
				b.Fatalf("batched %d requests, want %d", got, b.N*rows)
			}
			b.ReportMetric(float64(b.N*rows)/b.Elapsed().Seconds(), "decisions/sec")
		})
	}
}

// BenchmarkServeLoopback measures the real serving path: one client making
// sequential Decide calls over loopback TCP to a daemon with the default
// Config, so every op pays framing, the socket round trip and the batcher's
// hand-off on top of one single-row execution. Compare with
// BenchmarkServeBatch/batch=1, the execution alone.
func BenchmarkServeLoopback(b *testing.B) {
	const dim = 16
	net := nn.NewMLP(simcore.NewRNG(7), []int{dim, 32, 32, 2}, []nn.Activation{nn.ReLU, nn.ReLU, nn.Tanh})
	srv, err := ServeConfig("127.0.0.1:0", &core.NNPolicy{Net: net}, Config{})
	if err != nil {
		b.Fatal(err)
	}
	defer srv.Close()
	cl, err := DialConfig(srv.Addr(), constPolicy{-9, -9}, ClientConfig{Timeout: time.Second})
	if err != nil {
		b.Fatal(err)
	}
	defer cl.Close()
	state := make([]float64, dim)
	for j := range state {
		state[j] = 0.001 * float64(j)
	}
	cl.Decide(state) // warm the connection
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cl.Decide(state)
	}
	b.StopTimer()
	if fb := cl.FallbackDecisions(); fb != 0 {
		b.Fatalf("%d of %d decisions fell back", fb, b.N+1)
	}
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "decisions/sec")
}
