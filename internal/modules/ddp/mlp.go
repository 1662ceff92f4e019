package ddp

import (
	"math"
	"math/rand"
)

// The model: a dense multi-layer perceptron whose parameters and
// gradients live inside gradient buckets — flat []float64 arrays sized
// and padded for the communication schedule — with each layer's W and b
// as subslices. Packing storage by bucket (rather than bucketing by
// copying) is what makes the flush path allocation-free: initiating a
// bucket's collective passes the bucket's own backing array to the
// runtime's in-place ring.
//
// Bucket layout follows torch-DDP convention: layers are assigned in
// reverse order (the order backward produces gradients), greedily packed
// until the next layer would exceed the byte cap. The lowest-indexed
// layer of each bucket is the flush trigger: the moment backward
// finishes it, every gradient in the bucket is final.

// layer is one dense layer y = act(W·x + b), W row-major out×in. W, b,
// dW and db alias the owning bucket's flat params/grads arrays.
type layer struct {
	in, out int
	W, b    []float64
	dW, db  []float64
	bucket  int  // index of the bucket holding this layer
	flush   bool // backward finishing this layer completes the bucket
}

// bucket is one communication unit of parameters and gradients. Both
// arrays are padded to a multiple of the communicator size so the
// in-place ring collectives (Iallreduce, ReduceScatterInto, Iallgather)
// operate on them directly; pad elements start at zero and, because
// padded gradients are never written, provably stay zero through
// momentum updates on every rank.
type bucket struct {
	params []float64 // flat parameters, padded to a multiple of np
	grads  []float64 // matching gradient storage
	vel    []float64 // momentum state: full-length (DDP) or one shard (ZeRO-1)
	n      int       // live elements, before padding
}

// updateFull applies momentum SGD to the whole bucket from the
// allreduced gradient sums: g = Σ_ranks ∇/np, v = μv + g, p -= lr·v.
func (b *bucket) updateFull(lr, momentum, invNP float64) {
	for i := range b.params {
		g := b.grads[i] * invNP
		b.vel[i] = momentum*b.vel[i] + g
		b.params[i] -= lr * b.vel[i]
	}
}

// updateShard applies the identical elementwise update to shard `rank`
// only — the segment ReduceScatterInto just filled with fully reduced
// gradients. vel holds just this shard (the ZeRO-1 memory saving), and
// because the arithmetic matches updateFull exactly, the parameters the
// subsequent allgather distributes are bit-identical to DDP's.
func (b *bucket) updateShard(lr, momentum, invNP float64, rank, np int) {
	shard := len(b.params) / np
	off := rank * shard
	for i := 0; i < shard; i++ {
		g := b.grads[off+i] * invNP
		b.vel[i] = momentum*b.vel[i] + g
		b.params[off+i] -= lr * b.vel[i]
	}
}

// model is the MLP plus the scratch buffers forward/backward reuse, so a
// steady-state training step performs no allocations outside the runtime.
type model struct {
	sizes   []int
	layers  []*layer
	buckets []*bucket

	batch  int
	acts   [][]float64 // acts[0] = input copy; acts[l+1] = layer l output, batch×out
	delta  []float64   // gradient w.r.t. the current layer's output
	delta2 []float64   // gradient w.r.t. its input (ping-pong buffer)
}

// newModel builds the bucketed MLP. Initialization draws from a rank-
// independent seed, so every rank starts from identical parameters
// without a broadcast (the usual alternative — rank 0 bcasting its init —
// would work too; determinism is simpler and keeps setup off the wire).
func newModel(sizes []int, batch, bucketBytes, np int, zero1 bool, seed int64) *model {
	nLayers := len(sizes) - 1
	m := &model{sizes: sizes, batch: batch, layers: make([]*layer, nLayers)}

	// Group layers reverse-order into size-capped buckets.
	var groups [][]int
	var cur []int
	curBytes := 0
	for l := nLayers - 1; l >= 0; l-- {
		sz := (sizes[l]*sizes[l+1] + sizes[l+1]) * 8
		if len(cur) > 0 && curBytes+sz > bucketBytes {
			groups = append(groups, cur)
			cur, curBytes = nil, 0
		}
		cur = append(cur, l)
		curBytes += sz
	}
	groups = append(groups, cur)

	for bi, g := range groups {
		n := 0
		for _, l := range g {
			n += sizes[l]*sizes[l+1] + sizes[l+1]
		}
		padded := (n + np - 1) / np * np
		b := &bucket{
			params: make([]float64, padded),
			grads:  make([]float64, padded),
			n:      n,
		}
		if zero1 {
			b.vel = make([]float64, padded/np)
		} else {
			b.vel = make([]float64, padded)
		}
		off := 0
		for _, l := range g {
			in, out := sizes[l], sizes[l+1]
			lay := &layer{in: in, out: out, bucket: bi}
			lay.W, lay.dW = b.params[off:off+in*out], b.grads[off:off+in*out]
			off += in * out
			lay.b, lay.db = b.params[off:off+out], b.grads[off:off+out]
			off += out
			m.layers[l] = lay
		}
		m.layers[g[len(g)-1]].flush = true
		m.buckets = append(m.buckets, b)
	}

	// Deterministic init in ascending layer order (independent of the
	// bucket grouping, so changing -bucket-bytes never changes the model).
	rng := rand.New(rand.NewSource(seed))
	for _, lay := range m.layers {
		scale := 1.0 / math.Sqrt(float64(lay.in))
		for i := range lay.W {
			lay.W[i] = rng.NormFloat64() * scale
		}
	}

	m.acts = make([][]float64, nLayers+1)
	m.acts[0] = make([]float64, batch*sizes[0])
	maxW := 0
	for l := 0; l < nLayers; l++ {
		m.acts[l+1] = make([]float64, batch*sizes[l+1])
		if sizes[l] > maxW {
			maxW = sizes[l]
		}
		if sizes[l+1] > maxW {
			maxW = sizes[l+1]
		}
	}
	m.delta = make([]float64, batch*maxW)
	m.delta2 = make([]float64, batch*maxW)
	return m
}

// paramCount returns the number of live (unpadded) parameters.
func (m *model) paramCount() int {
	n := 0
	for _, b := range m.buckets {
		n += b.n
	}
	return n
}

// flatParams concatenates every bucket's live parameters, the canonical
// order the bit-identity tests compare.
func (m *model) flatParams() []float64 {
	out := make([]float64, 0, m.paramCount())
	for _, b := range m.buckets {
		out = append(out, b.params[:b.n]...)
	}
	return out
}

// flatVel concatenates every bucket's live momentum state in the same
// order as flatParams. Only meaningful under full replication, where
// every rank holds the complete velocity; ZeRO-1 shards it per rank.
func (m *model) flatVel() []float64 {
	out := make([]float64, 0, m.paramCount())
	for _, b := range m.buckets {
		out = append(out, b.vel[:b.n]...)
	}
	return out
}

// setFlatParams restores parameters from a flatParams snapshot. Padded
// tail elements are untouched; they are provably zero on a fresh model
// and stay zero through updates.
func (m *model) setFlatParams(v []float64) {
	off := 0
	for _, b := range m.buckets {
		copy(b.params[:b.n], v[off:off+b.n])
		off += b.n
	}
}

// setFlatVel restores momentum state from a flatVel snapshot (full
// replication only).
func (m *model) setFlatVel(v []float64) {
	off := 0
	for _, b := range m.buckets {
		copy(b.vel[:b.n], v[off:off+b.n])
		off += b.n
	}
}

// The three kernels below — forward, the dW/db accumulation and the
// delta2 propagation — are register-blocked over samples: each walks a
// W row (or dW row) once per group of 4 samples, with 4 independent
// accumulators, and a scalar tail handles batch%4. Every accumulator
// adds its terms in exactly the order the one-sample-at-a-time loop
// does, so the results are bit-identical to it on the same GOARCH
// (TestBlockedKernelsMatchScalar keeps that loop as the reference).

// forward runs the batch through the network: tanh hidden layers, linear
// output. X is batch×sizes[0] row-major and is copied into acts[0] for
// backward.
func (m *model) forward(X []float64) {
	copy(m.acts[0], X)
	last := len(m.layers) - 1
	for l, lay := range m.layers {
		in, out := lay.in, lay.out
		A, Z := m.acts[l], m.acts[l+1]
		hidden := l != last
		s := 0
		for ; s+4 <= m.batch; s += 4 {
			a0, a1, a2, a3 := A[s*in:][:in], A[(s+1)*in:][:in], A[(s+2)*in:][:in], A[(s+3)*in:][:in]
			for o := 0; o < out; o++ {
				wrow := lay.W[o*in:][:in]
				s0, s1, s2, s3 := lay.b[o], lay.b[o], lay.b[o], lay.b[o]
				for i, w := range wrow {
					s0 += w * a0[i]
					s1 += w * a1[i]
					s2 += w * a2[i]
					s3 += w * a3[i]
				}
				Z[s*out+o] = activate(s0, hidden)
				Z[(s+1)*out+o] = activate(s1, hidden)
				Z[(s+2)*out+o] = activate(s2, hidden)
				Z[(s+3)*out+o] = activate(s3, hidden)
			}
		}
		for ; s < m.batch; s++ {
			arow := A[s*in:][:in]
			for o := 0; o < out; o++ {
				sum := lay.b[o]
				for i, w := range lay.W[o*in:][:in] {
					sum += w * arow[i]
				}
				Z[s*out+o] = activate(sum, hidden)
			}
		}
	}
}

// activate applies the hidden layers' tanh; the output layer is linear.
func activate(x float64, hidden bool) float64 {
	if hidden {
		return math.Tanh(x)
	}
	return x
}

// outputLoss computes the mean-squared-error against Y (batch×sizes[last])
// and seeds m.delta with ∂loss/∂output. The 1/(batch·outDim)
// normalization makes the allreduced gradient sum an np-scaled global
// batch average.
func (m *model) outputLoss(Y []float64) float64 {
	out := m.sizes[len(m.sizes)-1]
	A := m.acts[len(m.acts)-1]
	norm := 1.0 / float64(m.batch*out)
	loss := 0.0
	for i := 0; i < m.batch*out; i++ {
		d := A[i] - Y[i]
		loss += d * d
		m.delta[i] = 2 * d * norm
	}
	return loss * norm
}

// backwardLayer consumes m.delta (∂loss/∂ this layer's output), writes
// dW and db, and leaves ∂loss/∂ input in m.delta for the next (lower)
// layer. Gradients accumulate with +=, so the caller zeroes bucket
// gradients once per step.
func (m *model) backwardLayer(l int) {
	lay := m.layers[l]
	in, out := lay.in, lay.out
	A, D := m.acts[l], m.delta
	s := 0
	for ; s+4 <= m.batch; s += 4 {
		d0, d1, d2, d3 := D[s*out:][:out], D[(s+1)*out:][:out], D[(s+2)*out:][:out], D[(s+3)*out:][:out]
		a0, a1, a2, a3 := A[s*in:][:in], A[(s+1)*in:][:in], A[(s+2)*in:][:in], A[(s+3)*in:][:in]
		for o := 0; o < out; o++ {
			e0, e1, e2, e3 := d0[o], d1[o], d2[o], d3[o]
			g := lay.db[o]
			g += e0
			g += e1
			g += e2
			g += e3
			lay.db[o] = g
			wg := lay.dW[o*in:][:in]
			for i := range wg {
				g := wg[i]
				g += e0 * a0[i]
				g += e1 * a1[i]
				g += e2 * a2[i]
				g += e3 * a3[i]
				wg[i] = g
			}
		}
	}
	for ; s < m.batch; s++ {
		arow := A[s*in:][:in]
		for o, d := range D[s*out:][:out] {
			lay.db[o] += d
			wg := lay.dW[o*in:][:in]
			for i, a := range arow {
				wg[i] += d * a
			}
		}
	}
	if l == 0 {
		return // no need to propagate into the input
	}
	// delta2 = (delta · W) ⊙ tanh'(input activation); tanh' = 1 - a².
	P := m.delta2
	s = 0
	for ; s+4 <= m.batch; s += 4 {
		d0, d1, d2, d3 := D[s*out:][:out], D[(s+1)*out:][:out], D[(s+2)*out:][:out], D[(s+3)*out:][:out]
		p0, p1, p2, p3 := P[s*in:][:in], P[(s+1)*in:][:in], P[(s+2)*in:][:in], P[(s+3)*in:][:in]
		clear(P[s*in : (s+4)*in])
		for o := 0; o < out; o++ {
			e0, e1, e2, e3 := d0[o], d1[o], d2[o], d3[o]
			for i, w := range lay.W[o*in:][:in] {
				p0[i] += e0 * w
				p1[i] += e1 * w
				p2[i] += e2 * w
				p3[i] += e3 * w
			}
		}
	}
	for ; s < m.batch; s++ {
		prow := P[s*in:][:in]
		clear(prow)
		for o, d := range D[s*out:][:out] {
			for i, w := range lay.W[o*in:][:in] {
				prow[i] += d * w
			}
		}
	}
	for i, a := range A[:m.batch*in] {
		P[i] *= 1 - a*a
	}
	m.delta, m.delta2 = m.delta2, m.delta
}
