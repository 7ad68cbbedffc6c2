package nn

// The per-sample training path: one forward pass with recorded activations
// and its backward pass, both through reusable buffers. Production trains
// through the batched kernels only; this is the reference they are
// property-tested against.

// sampleTrace caches the per-layer activations of one forward pass.
// acts[0] is the input; acts[i+1] is layer i's output.
type sampleTrace struct {
	acts [][]float64
}

func (t *sampleTrace) output() []float64 { return t.acts[len(t.acts)-1] }

// newSampleTrace allocates a reusable trace shaped for m.
func newSampleTrace(m *MLP) *sampleTrace {
	tr := &sampleTrace{acts: make([][]float64, len(m.Layers)+1)}
	tr.acts[0] = make([]float64, m.Layers[0].In)
	for i, l := range m.Layers {
		tr.acts[i+1] = make([]float64, l.Out)
	}
	return tr
}

// forwardTrace runs inference recording activations into tr. The input is
// copied into tr's own buffer, so tr never aliases x. Returns tr.
func (m *MLP) forwardTrace(x []float64, tr *sampleTrace) *sampleTrace {
	copy(tr.acts[0], x)
	cur := tr.acts[0]
	for li, l := range m.Layers {
		next := tr.acts[li+1]
		for o := 0; o < l.Out; o++ {
			sum := l.B[o]
			row := l.W[o*l.In : (o+1)*l.In]
			for i, xi := range cur {
				sum += row[i] * xi
			}
			next[o] = sum
		}
		l.Act.apply(next)
		cur = next
	}
	return tr
}

// backward accumulates parameter gradients into g for the traced pass given
// dOut = dLoss/dOutput, and returns dLoss/dInput. The per-layer deltas live
// in s's ping-pong buffers, so the returned slice is valid only until the
// next use of s.
func (m *MLP) backward(tr *sampleTrace, dOut []float64, g *Grads, s *Scratch) []float64 {
	delta := s.a[:len(dOut)]
	copy(delta, dOut)
	useA := false // delta occupies a; the first input-gradient buffer is b
	for li := len(m.Layers) - 1; li >= 0; li-- {
		l := m.Layers[li]
		in := tr.acts[li]
		out := tr.acts[li+1]
		for o := range delta {
			delta[o] *= l.Act.derivFromOutput(out[o])
		}
		gw := g.W[li]
		gb := g.B[li]
		for o := 0; o < l.Out; o++ {
			d := delta[o]
			gb[o] += d
			row := gw[o*l.In : (o+1)*l.In]
			for i, xi := range in {
				row[i] += d * xi
			}
		}
		next := s.b[:l.In]
		if useA {
			next = s.a[:l.In]
		}
		useA = !useA
		clearSlice(next)
		for o := 0; o < l.Out; o++ {
			d := delta[o]
			row := l.W[o*l.In : (o+1)*l.In]
			for i := range next {
				next[i] += d * row[i]
			}
		}
		delta = next
	}
	return delta
}

// sampleGrad runs one traced forward and backward pass of x with fresh
// buffers, accumulating into g, and returns a copy of dLoss/dInput.
func sampleGrad(m *MLP, x, dOut []float64, g *Grads) []float64 {
	tr := m.forwardTrace(x, newSampleTrace(m))
	return append([]float64(nil), m.backward(tr, dOut, g, NewScratch(m))...)
}
