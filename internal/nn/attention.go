package nn

import (
	"math"
	"math/rand"

	"github.com/navarchos/pdm/internal/mat"
)

// SelfAttention is multi-head scaled dot-product self-attention over a
// sequence: the input matrix's rows are sequence positions, its columns
// the model dimension. Dim must be divisible by Heads.
//
// The default fast path packs each head's Q/K/V column slice into
// contiguous scratch and runs the score and mixing products through
// mat.MatMul, whose k-ordered axpy accumulation reproduces the legacy
// scalar loops bit for bit, and the value-side backward through
// mat.LinBwd, whose dots keep the legacy reduction order; every
// intermediate lives in layer-owned scratch, so a warm layer allocates
// nothing per call. With
// SetFastDots the attention-gradient product additionally switches to
// mat.MatMulT/DotUnrolled4, which reassociates the reduction — tranad
// enables it only for minibatch training, where no bit-exactness against
// the legacy per-window trajectory is contracted.
type SelfAttention struct {
	Dim, Heads, dk int
	wq, wk, wv, wo *Linear

	legacy   bool
	fastDots bool

	// caches
	x       *mat.Matrix
	q, k, v *mat.Matrix
	attn    []*mat.Matrix // per head: seq×seq softmax weights
	concat  *mat.Matrix

	// fast-path scratch, grown once
	attnS        []*mat.Matrix
	concatS      mat.Matrix
	qh, kh, vh   mat.Matrix
	khT, oh, doh mat.Matrix
	dAttn, dVh   mat.Matrix
	dQ, dK, dV   mat.Matrix

	// inference scratch for AttendLast, disjoint from the training
	// caches above so streaming scores cannot clobber an in-flight
	// forward/backward pair
	infK, infV       mat.Matrix
	infQ, infS, infC []float64
}

// NewSelfAttention builds a multi-head self-attention block.
func NewSelfAttention(dim, heads int, rng *rand.Rand) *SelfAttention {
	if heads < 1 || dim%heads != 0 {
		panic("nn: SelfAttention dim must be divisible by heads")
	}
	return &SelfAttention{
		Dim:   dim,
		Heads: heads,
		dk:    dim / heads,
		wq:    NewLinear(dim, dim, rng),
		wk:    NewLinear(dim, dim, rng),
		wv:    NewLinear(dim, dim, rng),
		wo:    NewLinear(dim, dim, rng),
	}
}

// packHead copies head h's column slice of src (seq×Dim) into dst,
// reshaped to seq×dk.
func (a *SelfAttention) packHead(dst *mat.Matrix, src *mat.Matrix, h int) *mat.Matrix {
	off := h * a.dk
	dst.EnsureShape(src.Rows, a.dk)
	for i := 0; i < src.Rows; i++ {
		copy(dst.Row(i), src.Row(i)[off:off+a.dk])
	}
	return dst
}

// Forward implements Layer.
func (a *SelfAttention) Forward(x *mat.Matrix) *mat.Matrix {
	if a.legacy {
		return a.forwardLegacy(x)
	}
	a.x = x
	a.q = a.wq.Forward(x)
	a.k = a.wk.Forward(x)
	a.v = a.wv.Forward(x)
	seq := x.Rows
	if len(a.attnS) < a.Heads {
		a.attnS = make([]*mat.Matrix, a.Heads)
		for h := range a.attnS {
			a.attnS[h] = &mat.Matrix{}
		}
	}
	a.attn = a.attnS[:a.Heads]
	a.concat = a.concatS.EnsureShape(seq, a.Dim)
	scale := 1 / math.Sqrt(float64(a.dk))
	for h := 0; h < a.Heads; h++ {
		off := h * a.dk
		qh := a.packHead(&a.qh, a.q, h)
		kh := a.packHead(&a.kh, a.k, h)
		vh := a.packHead(&a.vh, a.v, h)
		// scores = Qh Kh^T * scale — MatMul against the transposed key
		// block accumulates over t in the same order as the legacy
		// row-row dots — then softmax per row.
		attn := mat.MatMul(a.attnS[h], qh, kh.TransposeInto(&a.khT))
		for i := 0; i < seq; i++ {
			srow := attn.Row(i)
			maxv := math.Inf(-1)
			for j := range srow {
				srow[j] *= scale
				if srow[j] > maxv {
					maxv = srow[j]
				}
			}
			var sum float64
			for j := range srow {
				srow[j] = math.Exp(srow[j] - maxv)
				sum += srow[j]
			}
			inv := 1 / sum
			for j := range srow {
				srow[j] *= inv
			}
		}
		// out_h = attn · Vh, written into the concat slot.
		oh := mat.MatMul(&a.oh, attn, vh)
		for i := 0; i < seq; i++ {
			copy(a.concat.Row(i)[off:off+a.dk], oh.Row(i))
		}
	}
	return a.wo.Forward(a.concat)
}

func (a *SelfAttention) forwardLegacy(x *mat.Matrix) *mat.Matrix {
	a.x = x
	a.q = a.wq.Forward(x)
	a.k = a.wk.Forward(x)
	a.v = a.wv.Forward(x)
	seq := x.Rows
	a.attn = make([]*mat.Matrix, a.Heads)
	a.concat = mat.NewMatrix(seq, a.Dim)
	scale := 1 / math.Sqrt(float64(a.dk))
	for h := 0; h < a.Heads; h++ {
		off := h * a.dk
		// scores = Qh Kh^T * scale, softmax per row.
		attn := mat.NewMatrix(seq, seq)
		for i := 0; i < seq; i++ {
			qi := a.q.Row(i)[off : off+a.dk]
			srow := attn.Row(i)
			maxv := math.Inf(-1)
			for j := 0; j < seq; j++ {
				kj := a.k.Row(j)[off : off+a.dk]
				var s float64
				for t := 0; t < a.dk; t++ {
					s += qi[t] * kj[t]
				}
				s *= scale
				srow[j] = s
				if s > maxv {
					maxv = s
				}
			}
			var sum float64
			for j := range srow {
				srow[j] = math.Exp(srow[j] - maxv)
				sum += srow[j]
			}
			inv := 1 / sum
			for j := range srow {
				srow[j] *= inv
			}
		}
		a.attn[h] = attn
		// out_h = attn · Vh, written into the concat slot.
		for i := 0; i < seq; i++ {
			orow := a.concat.Row(i)[off : off+a.dk]
			arow := attn.Row(i)
			for j := 0; j < seq; j++ {
				w := arow[j]
				if w == 0 {
					continue
				}
				vj := a.v.Row(j)[off : off+a.dk]
				for t := 0; t < a.dk; t++ {
					orow[t] += w * vj[t]
				}
			}
		}
	}
	return a.wo.Forward(a.concat)
}

// Backward implements Layer.
func (a *SelfAttention) Backward(grad *mat.Matrix) *mat.Matrix {
	seq := a.x.Rows
	dConcat := a.wo.Backward(grad)
	var dQ, dK, dV *mat.Matrix
	if a.legacy {
		dQ = mat.NewMatrix(seq, a.Dim)
		dK = mat.NewMatrix(seq, a.Dim)
		dV = mat.NewMatrix(seq, a.Dim)
	} else {
		dQ = a.dQ.EnsureShape(seq, a.Dim).Zero()
		dK = a.dK.EnsureShape(seq, a.Dim).Zero()
		dV = a.dV.EnsureShape(seq, a.Dim).Zero()
	}
	scale := 1 / math.Sqrt(float64(a.dk))

	for h := 0; h < a.Heads; h++ {
		off := h * a.dk
		attn := a.attn[h]
		// dV += attn^T · dOut_h ; dAttn = dOut_h · Vh^T.
		var dAttn *mat.Matrix
		if a.legacy {
			dAttn = mat.NewMatrix(seq, seq)
		} else {
			dAttn = a.dAttn.EnsureShape(seq, seq)
		}
		switch {
		case a.legacy:
			for i := 0; i < seq; i++ {
				doi := dConcat.Row(i)[off : off+a.dk]
				arow := attn.Row(i)
				darow := dAttn.Row(i)
				for j := 0; j < seq; j++ {
					vj := a.v.Row(j)[off : off+a.dk]
					dvj := dV.Row(j)[off : off+a.dk]
					var dot float64
					for t := 0; t < a.dk; t++ {
						dvj[t] += arow[j] * doi[t]
						dot += doi[t] * vj[t]
					}
					darow[j] = dot
				}
			}
		case a.fastDots:
			// Reassociating path: dAttn as one MatMulT over the packed
			// head blocks, then the dV axpy sweep.
			doh := a.packHead(&a.doh, dConcat, h)
			vh := a.packHead(&a.vh, a.v, h)
			mat.MatMulT(dAttn, doh, vh)
			for i := 0; i < seq; i++ {
				arow := attn.Row(i)
				doi := doh.Row(i)
				for j := 0; j < seq; j++ {
					mat.AddScaled(dV.Row(j)[off:off+a.dk], arow[j], doi)
				}
			}
		default:
			// Per query row i this is a dense backward row with W = Vh
			// (seq×dk): dAttn[i][j] = dOut_h[i]·Vh[j] reduced in t order
			// and dVh[j] += attn[i][j]·dOut_h[i]. mat.LinBwd runs four
			// keys' in-order dots side by side, bit-identical to the
			// legacy per-(i, j) loop.
			doh := a.packHead(&a.doh, dConcat, h)
			vh := a.packHead(&a.vh, a.v, h)
			dvh := a.dVh.EnsureShape(seq, a.dk).Zero()
			for i := 0; i < seq; i++ {
				mat.LinBwd(attn.Row(i), doh.Row(i), vh.Data, dvh.Data, dAttn.Row(i))
			}
			for j := 0; j < seq; j++ {
				copy(dV.Row(j)[off:off+a.dk], dvh.Row(j))
			}
		}
		// Softmax backward per row: dS = attn ⊙ (dAttn - rowsum(dAttn ⊙ attn)).
		for i := 0; i < seq; i++ {
			arow := attn.Row(i)
			darow := dAttn.Row(i)
			var dot float64
			for j := 0; j < seq; j++ {
				dot += darow[j] * arow[j]
			}
			for j := 0; j < seq; j++ {
				darow[j] = arow[j] * (darow[j] - dot)
			}
		}
		// dQ += dS · Kh * scale ; dK += dS^T · Qh * scale.
		for i := 0; i < seq; i++ {
			darow := dAttn.Row(i)
			qi := a.q.Row(i)[off : off+a.dk]
			dqi := dQ.Row(i)[off : off+a.dk]
			for j := 0; j < seq; j++ {
				ds := darow[j] * scale
				if ds == 0 {
					continue
				}
				kj := a.k.Row(j)[off : off+a.dk]
				dkj := dK.Row(j)[off : off+a.dk]
				for t := 0; t < a.dk; t++ {
					dqi[t] += ds * kj[t]
					dkj[t] += ds * qi[t]
				}
			}
		}
	}

	dx := a.wq.Backward(dQ)
	dxk := a.wk.Backward(dK)
	dxv := a.wv.Backward(dV)
	for i := range dx.Data {
		dx.Data[i] += dxk.Data[i] + dxv.Data[i]
	}
	return dx
}

// Params implements Layer.
func (a *SelfAttention) Params() []*Param {
	var out []*Param
	out = append(out, a.wq.Params()...)
	out = append(out, a.wk.Params()...)
	out = append(out, a.wv.Params()...)
	out = append(out, a.wo.Params()...)
	return out
}

// PositionalEncoding adds fixed sinusoidal position information to a
// sequence (rows = positions). It has no parameters. The fast path
// computes the encoding table once and replays it by addition; the table
// entries come from the same expression the legacy path evaluates, so
// both paths add identical values.
type PositionalEncoding struct {
	Dim    int
	legacy bool
	pe     mat.Matrix
	out    mat.Matrix
}

// NewPositionalEncoding returns the standard sinusoidal encoder.
func NewPositionalEncoding(dim int) *PositionalEncoding { return &PositionalEncoding{Dim: dim} }

// peAt is the sinusoidal table entry for one (position, channel) pair.
func (p *PositionalEncoding) peAt(pos, j int) float64 {
	angle := float64(pos) / math.Pow(10000, float64(2*(j/2))/float64(p.Dim))
	if j%2 == 0 {
		return math.Sin(angle)
	}
	return math.Cos(angle)
}

// Forward implements Layer.
func (p *PositionalEncoding) Forward(x *mat.Matrix) *mat.Matrix {
	if p.legacy {
		out := x.Clone()
		for pos := 0; pos < out.Rows; pos++ {
			row := out.Row(pos)
			for j := 0; j < out.Cols; j++ {
				row[j] += p.peAt(pos, j)
			}
		}
		return out
	}
	p.ensureTable(x.Rows, x.Cols)
	out := p.out.EnsureShape(x.Rows, x.Cols)
	for pos := 0; pos < x.Rows; pos++ {
		row := out.Row(pos)
		xrow := x.Row(pos)
		perow := p.pe.Row(pos)
		for j := range row {
			row[j] = xrow[j] + perow[j]
		}
	}
	return out
}

// Backward implements Layer (identity gradient).
func (p *PositionalEncoding) Backward(grad *mat.Matrix) *mat.Matrix { return grad }

// Params implements Layer.
func (p *PositionalEncoding) Params() []*Param { return nil }

// Residual wraps a layer with a skip connection: y = x + f(x).
type Residual struct {
	Inner  Layer
	legacy bool
	out    mat.Matrix
	dout   mat.Matrix
}

// NewResidual wraps inner with a skip connection.
func NewResidual(inner Layer) *Residual { return &Residual{Inner: inner} }

// Forward implements Layer.
func (r *Residual) Forward(x *mat.Matrix) *mat.Matrix {
	y := r.Inner.Forward(x)
	var out *mat.Matrix
	if r.legacy {
		out = y.Clone()
	} else {
		out = r.out.EnsureShape(y.Rows, y.Cols)
		copy(out.Data, y.Data)
	}
	for i := range out.Data {
		out.Data[i] += x.Data[i]
	}
	return out
}

// Backward implements Layer.
func (r *Residual) Backward(grad *mat.Matrix) *mat.Matrix {
	dInner := r.Inner.Backward(grad)
	var out *mat.Matrix
	if r.legacy {
		out = dInner.Clone()
	} else {
		out = r.dout.EnsureShape(dInner.Rows, dInner.Cols)
		copy(out.Data, dInner.Data)
	}
	for i := range out.Data {
		out.Data[i] += grad.Data[i]
	}
	return out
}

// Params implements Layer.
func (r *Residual) Params() []*Param { return r.Inner.Params() }
