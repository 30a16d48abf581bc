package nn

import (
	"math"
	"math/rand"
	"testing"

	"github.com/navarchos/pdm/internal/mat"
)

// buildTestNet assembles the same block structure tranad uses: dense →
// positional encoding → residual attention → layer norm → residual MLP →
// layer norm, so the equivalence test covers every layer type.
func buildTestNet(rng *rand.Rand) *Sequential { return buildNet(rng, 6, 0) }

// buildNet is buildTestNet over in input features. fuse > 0 adds a
// dim→fuse→dim bottleneck before the output projection, the shape of
// tranad's fuse layer (dim + in inputs).
func buildNet(rng *rand.Rand, in, fuse int) *Sequential {
	dim := 12
	layers := []Layer{
		NewLinear(in, dim, rng),
		NewPositionalEncoding(dim),
		NewResidual(NewSelfAttention(dim, 2, rng)),
		NewLayerNorm(dim),
		NewResidual(NewSequential(
			NewLinear(dim, 2*dim, rng),
			NewReLU(),
			NewLinear(2*dim, dim, rng),
		)),
		NewLayerNorm(dim),
	}
	if fuse > 0 {
		layers = append(layers, NewLinear(dim, fuse, rng), NewReLU(), NewLinear(fuse, dim, rng))
	}
	layers = append(layers, NewLinear(dim, in, rng), NewSigmoid(), NewTanh())
	return NewSequential(layers...)
}

// TestFastKernelsBitIdenticalToLegacy trains two identically seeded nets
// — one on the legacy allocate-per-call path, one on the scratch-reuse
// kernels — through several Adam steps and requires Float64bits-equal
// outputs and weights at every step. This is the determinism contract
// DESIGN.md §11 documents: the kernel rewrite must not move a single
// bit of the optimisation trajectory. The second net has the
// correlation transform's 15 features and a 27→12 fuse layer, so every
// row- and column-tail path of the dense kernels trains too.
func TestFastKernelsBitIdenticalToLegacy(t *testing.T) {
	for _, shape := range []struct{ in, fuse int }{{6, 0}, {15, 27}} {
		legacyNet := buildNet(rand.New(rand.NewSource(7)), shape.in, shape.fuse)
		fastNet := buildNet(rand.New(rand.NewSource(7)), shape.in, shape.fuse)
		SetLegacyKernels(legacyNet, true)

		legacyOpt := NewAdam(legacyNet.Params(), 0.01)
		fastOpt := NewAdam(fastNet.Params(), 0.01)

		dataRng := rand.New(rand.NewSource(8))
		grad := mat.NewMatrix(0, 0)
		for step := 0; step < 5; step++ {
			x := mat.NewMatrix(8, shape.in)
			target := mat.NewMatrix(8, shape.in)
			for i := range x.Data {
				x.Data[i] = dataRng.NormFloat64()
				target.Data[i] = dataRng.NormFloat64()
			}

			legacyOut := legacyNet.Forward(x.Clone())
			fastOut := fastNet.Forward(x.Clone())
			for i := range legacyOut.Data {
				if math.Float64bits(legacyOut.Data[i]) != math.Float64bits(fastOut.Data[i]) {
					t.Fatalf("in=%d step %d: forward output %d differs: legacy %v fast %v",
						shape.in, step, i, legacyOut.Data[i], fastOut.Data[i])
				}
			}

			lossL, gradL := MSELoss(legacyOut, target)
			lossF, gradF := MSELossInto(grad, fastOut, target)
			if math.Float64bits(lossL) != math.Float64bits(lossF) {
				t.Fatalf("in=%d step %d: loss differs: %v vs %v", shape.in, step, lossL, lossF)
			}

			legacyNet.Backward(gradL)
			fastNet.Backward(gradF)
			legacyOpt.Step()
			fastOpt.Step()

			lp, fp := legacyNet.Params(), fastNet.Params()
			for pi := range lp {
				for j := range lp[pi].W {
					if math.Float64bits(lp[pi].W[j]) != math.Float64bits(fp[pi].W[j]) {
						t.Fatalf("in=%d step %d: param %d weight %d differs: legacy %v fast %v",
							shape.in, step, pi, j, lp[pi].W[j], fp[pi].W[j])
					}
				}
			}
		}
	}
}

// TestFastKernelsZeroSteadyStateAllocs checks the zero-allocation
// contract: once the scratch is warm, a full forward/backward/loss pass
// allocates nothing.
func TestFastKernelsZeroSteadyStateAllocs(t *testing.T) {
	net := buildTestNet(rand.New(rand.NewSource(9)))
	opt := NewAdam(net.Params(), 0.01)
	x := mat.NewMatrix(8, 6)
	target := mat.NewMatrix(8, 6)
	rng := rand.New(rand.NewSource(10))
	for i := range x.Data {
		x.Data[i] = rng.NormFloat64()
		target.Data[i] = rng.NormFloat64()
	}
	grad := mat.NewMatrix(0, 0)
	trainOnce := func() {
		out := net.Forward(x)
		_, g := MSELossInto(grad, out, target)
		net.Backward(g)
		opt.Step()
	}
	trainOnce() // warm the scratch
	// Sequential.Params allocates (it appends), so measure the training
	// step alone.
	if allocs := testing.AllocsPerRun(20, trainOnce); allocs != 0 {
		t.Fatalf("steady-state train step allocates %v times, want 0", allocs)
	}
}

// TestFastDotsCloseToExact sanity-checks the reassociating minibatch
// attention path against the exact one: same data, same seed, results
// equal within float tolerance (not bits).
func TestFastDotsCloseToExact(t *testing.T) {
	exact := buildTestNet(rand.New(rand.NewSource(11)))
	fast := buildTestNet(rand.New(rand.NewSource(11)))
	SetFastDots(fast, true)

	x := mat.NewMatrix(8, 6)
	target := mat.NewMatrix(8, 6)
	rng := rand.New(rand.NewSource(12))
	for i := range x.Data {
		x.Data[i] = rng.NormFloat64()
		target.Data[i] = rng.NormFloat64()
	}
	outE := exact.Forward(x.Clone())
	outF := fast.Forward(x.Clone())
	_, gE := MSELoss(outE, target)
	_, gF := MSELoss(outF, target)
	exact.Backward(gE)
	fast.Backward(gF)
	pe, pf := exact.Params(), fast.Params()
	for pi := range pe {
		for j := range pe[pi].G {
			d := math.Abs(pe[pi].G[j] - pf[pi].G[j])
			if d > 1e-12 {
				t.Fatalf("param %d grad %d: exact %v fastDots %v", pi, j, pe[pi].G[j], pf[pi].G[j])
			}
		}
	}
}
