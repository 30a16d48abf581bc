package nn

import (
	"math/rand"

	"github.com/navarchos/pdm/internal/mat"
)

// Linear is a fully connected layer: y = xW + b with W of shape in×out.
//
// The default fast path runs each row through one fused mat kernel —
// mat.LinFwd forward, mat.LinBwd backward — writing into layer-owned
// scratch matrices: zero allocations once the scratch is warm, and
// bit-identical outputs to the legacy allocate-per-call path (every
// output element is reduced in the same order the scalar loops used;
// the kernels only run several outputs' reductions side by side). The
// legacy path is retained behind SetLegacyKernels as the fit-perf
// baseline and as the oracle for the equivalence tests.
type Linear struct {
	In, Out int
	w, b    *Param
	x       *mat.Matrix // cached input
	legacy  bool
	// fastDots routes the input-gradient dots of Backward through
	// mat.DotUnrolled4 (FMA-reassociated where the CPU has it). Like the
	// attention fastDots flag it abandons bit-exactness against the
	// legacy reduction order, so it is only switched on where no such
	// contract exists (tranad minibatch training).
	fastDots bool
	out, dx  mat.Matrix // scratch, grown once
}

// NewLinear creates a Glorot-initialised dense layer using rng.
func NewLinear(in, out int, rng *rand.Rand) *Linear {
	l := &Linear{In: in, Out: out, w: newParam(in * out), b: newParam(out)}
	xavierInit(rng, l.w.W, in, out)
	return l
}

// Forward implements Layer.
func (l *Linear) Forward(x *mat.Matrix) *mat.Matrix {
	if l.legacy {
		return l.forwardLegacy(x)
	}
	l.x = x
	out := l.out.EnsureShape(x.Rows, l.Out)
	for i := 0; i < x.Rows; i++ {
		mat.LinFwd(x.Row(i), l.b.W, l.w.W, out.Row(i))
	}
	return out
}

func (l *Linear) forwardLegacy(x *mat.Matrix) *mat.Matrix {
	l.x = x
	out := mat.NewMatrix(x.Rows, l.Out)
	for i := 0; i < x.Rows; i++ {
		xi := x.Row(i)
		oi := out.Row(i)
		copy(oi, l.b.W)
		for k := 0; k < l.In; k++ {
			v := xi[k]
			if v == 0 {
				continue
			}
			wrow := l.w.W[k*l.Out : (k+1)*l.Out]
			for j := range oi {
				oi[j] += v * wrow[j]
			}
		}
	}
	return out
}

// Backward implements Layer.
func (l *Linear) Backward(grad *mat.Matrix) *mat.Matrix {
	if l.legacy {
		return l.backwardLegacy(grad)
	}
	dx := l.dx.EnsureShape(l.x.Rows, l.In)
	for i := 0; i < grad.Rows; i++ {
		gi := grad.Row(i)
		xi := l.x.Row(i)
		di := dx.Row(i)
		// db += g ; dW += x^T g ; dx = g W^T in one fused pass over W.
		// The dots are in-order by default and FMA-reassociated when
		// fastDots is on.
		mat.AddScaled(l.b.G, 1, gi)
		if l.fastDots {
			mat.LinBwdFast(xi, gi, l.w.W, l.w.G, di)
		} else {
			mat.LinBwd(xi, gi, l.w.W, l.w.G, di)
		}
	}
	return dx
}

func (l *Linear) backwardLegacy(grad *mat.Matrix) *mat.Matrix {
	dx := mat.NewMatrix(l.x.Rows, l.In)
	for i := 0; i < grad.Rows; i++ {
		gi := grad.Row(i)
		xi := l.x.Row(i)
		di := dx.Row(i)
		// db += g ; dW += x^T g ; dx = g W^T
		for j := 0; j < l.Out; j++ {
			l.b.G[j] += gi[j]
		}
		for k := 0; k < l.In; k++ {
			wrow := l.w.W[k*l.Out : (k+1)*l.Out]
			grow := l.w.G[k*l.Out : (k+1)*l.Out]
			xv := xi[k]
			var acc float64
			for j := 0; j < l.Out; j++ {
				grow[j] += xv * gi[j]
				acc += gi[j] * wrow[j]
			}
			di[k] = acc
		}
	}
	return dx
}

// Params implements Layer.
func (l *Linear) Params() []*Param { return []*Param{l.w, l.b} }
