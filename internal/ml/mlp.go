package ml

import (
	"math"
	"math/rand"
)

// MLP is a fully connected feed-forward network with ReLU hidden layers and
// a softmax output, trained with mini-batch SGD and momentum. The paper's
// neural-network baseline uses hidden size 128 and finds 8 hidden layers
// best on its data (§4.1).
type MLP struct {
	// Hidden lists the hidden layer widths (default: one layer of 128).
	Hidden []int
	// Epochs is the training pass count (default 100).
	Epochs int
	// LearningRate is the SGD step (default 0.01).
	LearningRate float64
	// Momentum is the SGD momentum factor (default 0.9).
	Momentum float64
	// Batch is the mini-batch size (default 32).
	Batch int
	// Seed drives initialization and shuffling.
	Seed int64

	weights [][]float64 // [layer][out*in], row-major
	biases  [][]float64 // [layer][out]
	classes int
}

// Fit trains the network.
func (m *MLP) Fit(X [][]float64, y []int) error {
	d, k, err := checkXY(X, y)
	if err != nil {
		return err
	}
	hidden := m.Hidden
	if len(hidden) == 0 {
		hidden = []int{128}
	}
	epochs := m.Epochs
	if epochs <= 0 {
		epochs = 100
	}
	lr := m.LearningRate
	if lr <= 0 {
		lr = 0.01
	}
	mom := m.Momentum
	if mom == 0 {
		mom = 0.9
	}
	batch := m.Batch
	if batch <= 0 {
		batch = 32
	}
	m.classes = k
	sizes := append(append([]int{d}, hidden...), k)
	layers := len(sizes) - 1
	rng := rand.New(rand.NewSource(m.Seed + 3))
	// The velocity, gradient, activation and delta buffers are allocated
	// once here and reused for every mini-batch.
	m.weights = make([][]float64, layers)
	m.biases = make([][]float64, layers)
	vel := make([][]float64, layers)
	velB := make([][]float64, layers)
	zs := make([][]float64, layers)     // one sample's pre-activations
	acts := make([][]float64, layers)   // batch inputs of each layer, a row per sample
	deltas := make([][]float64, layers) // batch output deltas, a row per sample
	widest := 0
	for l := 0; l < layers; l++ {
		in, out := sizes[l], sizes[l+1]
		scale := math.Sqrt(2 / float64(in)) // He init for ReLU
		m.weights[l] = make([]float64, out*in)
		for i := range m.weights[l] {
			m.weights[l][i] = rng.NormFloat64() * scale
		}
		m.biases[l] = make([]float64, out)
		vel[l] = make([]float64, out*in)
		velB[l] = make([]float64, out)
		zs[l] = make([]float64, out)
		acts[l] = make([]float64, batch*in)
		deltas[l] = make([]float64, batch*out)
		widest = max(widest, in, out)
	}
	grad := make([]float64, widest)
	n := len(X)
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	for e := 0; e < epochs; e++ {
		rng.Shuffle(n, func(a, b int) { order[a], order[b] = order[b], order[a] })
		for start := 0; start < n; start += batch {
			end := start + batch
			if end > n {
				end = n
			}
			bs := end - start
			for s, i := range order[start:end] {
				copy(acts[0][s*d:(s+1)*d], X[i])
				for l := 0; l < layers; l++ {
					in, out := sizes[l], sizes[l+1]
					affine(zs[l], m.biases[l], m.weights[l], acts[l][s*in:(s+1)*in])
					if l < layers-1 {
						relu(acts[l+1][s*out:(s+1)*out], zs[l])
					}
				}
				// Softmax + cross-entropy delta at the output.
				dl := deltas[layers-1][s*k : (s+1)*k]
				copy(dl, zs[layers-1])
				softmaxInPlace(dl)
				dl[y[i]] -= 1
				for l := layers - 1; l > 0; l-- {
					p := deltas[l-1][s*sizes[l] : (s+1)*sizes[l]]
					backprop(p, dl, m.weights[l])
					for j, v := range zs[l-1] {
						if v <= 0 { // ReLU'
							p[j] = 0
						}
					}
					dl = p
				}
			}
			for l := 0; l < layers; l++ {
				descend(m.weights[l], vel[l], m.biases[l], velB[l], acts[l], deltas[l], grad[:sizes[l]], bs, lr, mom)
			}
		}
	}
	return nil
}

// The kernels below keep, for every output element, exactly the sequence of
// floating-point operations of textbook per-sample training (same operands,
// same order), so Fit's weights are bit-identical to it. affine and backprop
// run four weight rows per pass: against one-row loops that cut
// `go test ./internal/experiments/`, which Table 2's MLP dominates, from
// 38.8 s to 30.0 s (medians of ten alternating runs on a 2-vCPU Xeon),
// where affine alone gained under 4 s and descend unrolled alike was slower.

// affine sets z[o] = b[o] + Σ_j w[o][j]·x[j] for the row-major weight arena
// w, summing in ascending j. Four outputs run at once so their independent
// chains of additions overlap.
func affine(z, b, w, x []float64) {
	n := len(x)
	o := 0
	for ; o+4 <= len(z); o += 4 {
		r0 := w[o*n : (o+1)*n][:n]
		r1 := w[(o+1)*n : (o+2)*n][:n]
		r2 := w[(o+2)*n : (o+3)*n][:n]
		r3 := w[(o+3)*n : (o+4)*n][:n]
		s0, s1, s2, s3 := b[o], b[o+1], b[o+2], b[o+3]
		for j, v := range x {
			s0 += r0[j] * v
			s1 += r1[j] * v
			s2 += r2[j] * v
			s3 += r3[j] * v
		}
		z[o], z[o+1], z[o+2], z[o+3] = s0, s1, s2, s3
	}
	for ; o < len(z); o++ {
		row := w[o*n : (o+1)*n][:n]
		s := b[o]
		for j, v := range x {
			s += row[j] * v
		}
		z[o] = s
	}
}

// relu sets a[i] = max(z[i], 0).
func relu(a, z []float64) {
	for i, v := range z {
		if v > 0 {
			a[i] = v
		} else {
			a[i] = 0
		}
	}
}

// backprop sets p[j] = Σ_o w[o][j]·d[o] for the row-major weight arena w,
// summing in ascending o from +0. Streaming four weight rows per pass reads
// w in memory order and loads and stores each p[j] once per four terms.
func backprop(p, d, w []float64) {
	n := len(p)
	clear(p)
	o := 0
	for ; o+4 <= len(d); o += 4 {
		r0 := w[o*n : (o+1)*n][:n]
		r1 := w[(o+1)*n : (o+2)*n][:n]
		r2 := w[(o+2)*n : (o+3)*n][:n]
		r3 := w[(o+3)*n : (o+4)*n][:n]
		d0, d1, d2, d3 := d[o], d[o+1], d[o+2], d[o+3]
		for j, t := range p {
			t += r0[j] * d0
			t += r1[j] * d1
			t += r2[j] * d2
			t += r3[j] * d3
			p[j] = t
		}
	}
	for ; o < len(d); o++ {
		row := w[o*n : (o+1)*n][:n]
		for j, v := range row {
			p[j] += v * d[o]
		}
	}
}

// descend takes one momentum step on a layer with row-major weights w
// (len(b) rows of len(grad)) after a mini-batch of bs samples. acts holds
// the layer's inputs and deltas its output deltas, a row per sample. Each
// gradient is summed from +0 over the samples in batch order.
func descend(w, vel, b, velB, acts, deltas, grad []float64, bs int, lr, mom float64) {
	in, out, n := len(grad), len(b), float64(bs)
	for o := range b {
		var gb float64
		clear(grad)
		for s := 0; s < bs; s++ {
			v := deltas[s*out+o]
			gb += v
			for j, a := range acts[s*in : (s+1)*in] {
				grad[j] += v * a
			}
		}
		row, vrow := w[o*in:(o+1)*in], vel[o*in:(o+1)*in]
		for j, g := range grad {
			vrow[j] = mom*vrow[j] - lr*g/n
			row[j] += vrow[j]
		}
		velB[o] = mom*velB[o] - lr*gb/n
		b[o] += velB[o]
	}
}

// softmaxInPlace replaces z with its softmax.
func softmaxInPlace(z []float64) {
	maxV := math.Inf(-1)
	for _, v := range z {
		if v > maxV {
			maxV = v
		}
	}
	var sum float64
	for i, v := range z {
		z[i] = math.Exp(v - maxV)
		sum += z[i]
	}
	for i := range z {
		z[i] /= sum
	}
}

// Predict implements Classifier. It runs Fit's forward pass over two scratch
// rows sized to the widest layer: z takes each layer's pre-activations and a
// their ReLU, the next layer's input.
func (m *MLP) Predict(X [][]float64) []int {
	out := make([]int, len(X))
	if len(m.weights) == 0 {
		return out
	}
	widest := 0
	for _, b := range m.biases {
		widest = max(widest, len(b))
	}
	z, a := make([]float64, widest), make([]float64, widest)
	last := len(m.weights) - 1
	for i, x := range X {
		for l, b := range m.biases {
			affine(z[:len(b)], b, m.weights[l], x)
			if l < last {
				relu(a[:len(b)], z[:len(b)])
				x = a[:len(b)]
			}
		}
		out[i] = argmax(z[:m.classes])
	}
	return out
}
