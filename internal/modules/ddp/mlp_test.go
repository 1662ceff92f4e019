package ddp

import (
	"math"
	"math/rand"
	"testing"
)

// forwardScalar is the one-sample-at-a-time forward pass the blocked
// kernel replaced, kept as its bit-exact reference.
func forwardScalar(m *model, X []float64) {
	copy(m.acts[0], X)
	last := len(m.layers) - 1
	for l, lay := range m.layers {
		in, out := lay.in, lay.out
		A, Z := m.acts[l], m.acts[l+1]
		for s := 0; s < m.batch; s++ {
			arow := A[s*in : (s+1)*in]
			zrow := Z[s*out : (s+1)*out]
			for o := 0; o < out; o++ {
				sum := lay.b[o]
				wrow := lay.W[o*in : (o+1)*in]
				for i, a := range arow {
					sum += wrow[i] * a
				}
				if l != last {
					sum = math.Tanh(sum)
				}
				zrow[o] = sum
			}
		}
	}
}

// backwardLayerScalar is the one-sample-at-a-time backward step the
// blocked kernel replaced.
func backwardLayerScalar(m *model, l int) {
	lay := m.layers[l]
	in, out := lay.in, lay.out
	A := m.acts[l]
	for s := 0; s < m.batch; s++ {
		drow := m.delta[s*out : (s+1)*out]
		arow := A[s*in : (s+1)*in]
		for o, d := range drow {
			lay.db[o] += d
			wg := lay.dW[o*in : (o+1)*in]
			for i, a := range arow {
				wg[i] += d * a
			}
		}
	}
	if l == 0 {
		return
	}
	for s := 0; s < m.batch; s++ {
		drow := m.delta[s*out : (s+1)*out]
		prow := m.delta2[s*in : (s+1)*in]
		for i := range prow {
			prow[i] = 0
		}
		for o, d := range drow {
			wrow := lay.W[o*in : (o+1)*in]
			for i, w := range wrow {
				prow[i] += d * w
			}
		}
		arow := A[s*in : (s+1)*in]
		for i, a := range arow {
			prow[i] *= 1 - a*a
		}
	}
	m.delta, m.delta2 = m.delta2, m.delta
}

// sameBits reports whether a and b hold bit-identical float64s.
func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// TestBlockedKernelsMatchScalar: the register-blocked forward and
// backward kernels must reproduce the scalar loops bit for bit — every
// activation, every propagated delta and every gradient — on batches
// that exercise the 4-sample blocks, the scalar tail and both together,
// with odd layer widths. Two training steps run so the second
// accumulates onto already-updated parameters.
func TestBlockedKernelsMatchScalar(t *testing.T) {
	sizes := []int{13, 27, 5, 11, 3}
	for _, batch := range []int{1, 3, 4, 5, 8, 9} {
		blocked := newModel(sizes, batch, 1<<10, 3, false, 5)
		scalar := newModel(sizes, batch, 1<<10, 3, false, 5)
		rng := rand.New(rand.NewSource(int64(batch)))
		X := make([]float64, batch*sizes[0])
		Y := make([]float64, batch*sizes[len(sizes)-1])
		for step := 0; step < 2; step++ {
			for i := range X {
				X[i] = rng.NormFloat64()
			}
			for i := range Y {
				Y[i] = rng.NormFloat64()
			}
			blocked.forward(X)
			forwardScalar(scalar, X)
			for l := range blocked.acts {
				if !sameBits(blocked.acts[l], scalar.acts[l]) {
					t.Fatalf("batch %d step %d: activations of layer %d differ", batch, step, l)
				}
			}
			blocked.outputLoss(Y)
			scalar.outputLoss(Y)
			for l := len(blocked.layers) - 1; l >= 0; l-- {
				blocked.backwardLayer(l)
				backwardLayerScalar(scalar, l)
				if !sameBits(blocked.delta, scalar.delta) {
					t.Fatalf("batch %d step %d: delta below layer %d differs", batch, step, l)
				}
			}
			for bi := range blocked.buckets {
				bb, sb := blocked.buckets[bi], scalar.buckets[bi]
				if !sameBits(bb.grads, sb.grads) {
					t.Fatalf("batch %d step %d: bucket %d gradients differ", batch, step, bi)
				}
				bb.updateFull(0.05, 0.9, 1)
				sb.updateFull(0.05, 0.9, 1)
			}
		}
	}
}
