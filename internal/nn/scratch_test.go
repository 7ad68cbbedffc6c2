package nn

import (
	"testing"

	"repro/internal/simcore"
)

func TestForwardIntoMatchesForward(t *testing.T) {
	m := newTestMLP(11)
	s := NewScratch(m)
	xs := [][]float64{
		{0.5, -1, 0.25},
		{0, 0, 0},
		{-2, 3, 0.125},
	}
	for _, x := range xs {
		want := m.Forward(x)
		got := m.ForwardInto(x, s)
		if len(got) != len(want) {
			t.Fatalf("len %d vs %d", len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("x=%v: ForwardInto=%v Forward=%v", x, got, want)
			}
		}
	}
}

func TestScratchReuseAcrossCalls(t *testing.T) {
	// Repeated ForwardInto calls with one scratch must keep producing
	// results identical to the allocating path (no stale-state leakage).
	m := newTestMLP(14)
	s := NewScratch(m)
	rng := simcore.NewRNG(99)
	x := make([]float64, m.InputDim())
	for iter := 0; iter < 50; iter++ {
		for i := range x {
			x[i] = rng.Range(-2, 2)
		}
		want := m.Forward(x)
		got := m.ForwardInto(x, s)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("iter %d: %v vs %v", iter, got, want)
			}
		}
	}
}

func benchMLP() *MLP {
	rng := simcore.NewRNG(7)
	// Jury/Astraea-sized policy net.
	return NewMLP(rng, []int{15, 64, 32, 1}, []Activation{ReLU, ReLU, Tanh})
}

func BenchmarkMLPForward(b *testing.B) {
	m := benchMLP()
	x := make([]float64, m.InputDim())
	for i := range x {
		x[i] = float64(i) * 0.1
	}
	b.Run("alloc", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			sinkF64 = m.Forward(x)[0]
		}
	})
	b.Run("into", func(b *testing.B) {
		s := NewScratch(m)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			sinkF64 = m.ForwardInto(x, s)[0]
		}
	})
}

var (
	sinkF64   float64
	sinkSlice []float64
)
