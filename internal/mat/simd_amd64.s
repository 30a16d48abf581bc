#include "textflag.h"

// CPUID with explicit EAX/ECX inputs.
// func cpuidex(eaxIn, ecxIn uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuidex(SB), NOSPLIT, $0-24
	MOVL eaxIn+0(FP), AX
	MOVL ecxIn+4(FP), CX
	CPUID
	MOVL AX, eax+8(FP)
	MOVL BX, ebx+12(FP)
	MOVL CX, ecx+16(FP)
	MOVL DX, edx+20(FP)
	RET

// XGETBV with ECX=0 (XCR0). Only called once OSXSAVE is confirmed.
// func xgetbv0() (eax, edx uint32)
TEXT ·xgetbv0(SB), NOSPLIT, $0-8
	XORL CX, CX
	XGETBV
	MOVL AX, eax+0(FP)
	MOVL DX, edx+4(FP)
	RET

// y[i] += alpha*x[i], len(x) a positive multiple of 8. Elementwise
// multiply-then-add (no FMA), so every lane produces exactly the bits
// of the scalar loop.
// func axpyAVX(alpha float64, x, y []float64)
TEXT ·axpyAVX(SB), NOSPLIT, $0-56
	VBROADCASTSD alpha+0(FP), Y0
	MOVQ x_base+8(FP), SI
	MOVQ y_base+32(FP), DI
	MOVQ x_len+16(FP), CX
	XORQ AX, AX

axpyloop:
	VMOVUPD (SI)(AX*8), Y1
	VMOVUPD 32(SI)(AX*8), Y2
	VMULPD  Y0, Y1, Y1
	VMULPD  Y0, Y2, Y2
	VADDPD  (DI)(AX*8), Y1, Y1
	VADDPD  32(DI)(AX*8), Y2, Y2
	VMOVUPD Y1, (DI)(AX*8)
	VMOVUPD Y2, 32(DI)(AX*8)
	ADDQ $8, AX
	CMPQ AX, CX
	JL   axpyloop
	VZEROUPPER
	RET

// Inner product with four vector accumulators and fused multiply-adds.
// Reassociates: DotUnrolled4 callers only. len(x) a positive multiple
// of 16.
// func dotFMA(x, y []float64) float64
TEXT ·dotFMA(SB), NOSPLIT, $0-56
	MOVQ x_base+0(FP), SI
	MOVQ y_base+24(FP), DI
	MOVQ x_len+8(FP), CX
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	XORQ AX, AX

dotloop:
	VMOVUPD (SI)(AX*8), Y4
	VMOVUPD 32(SI)(AX*8), Y5
	VMOVUPD 64(SI)(AX*8), Y6
	VMOVUPD 96(SI)(AX*8), Y7
	VFMADD231PD (DI)(AX*8), Y4, Y0
	VFMADD231PD 32(DI)(AX*8), Y5, Y1
	VFMADD231PD 64(DI)(AX*8), Y6, Y2
	VFMADD231PD 96(DI)(AX*8), Y7, Y3
	ADDQ $16, AX
	CMPQ AX, CX
	JL   dotloop

	VADDPD Y1, Y0, Y0
	VADDPD Y3, Y2, Y2
	VADDPD Y2, Y0, Y0
	VEXTRACTF128 $1, Y0, X1
	VADDPD X1, X0, X0
	VHADDPD X0, X0, X0
	VMOVSD X0, ret+48(FP)
	VZEROUPPER
	RET

// One Adam update over 4k elements (len(w) a positive multiple of 4).
// The lane arithmetic replays adamScalar's exact operation sequence —
// separate multiplies and adds, correctly-rounded VSQRTPD/VDIVPD — so
// the result is bit-identical to the pure Go loop.
// func adamAVX(w, g, m, v []float64, b1, omb1, b2, omb2, bc1, bc2, lr, eps float64)
TEXT ·adamAVX(SB), NOSPLIT, $0-160
	MOVQ w_base+0(FP), DI
	MOVQ g_base+24(FP), SI
	MOVQ m_base+48(FP), R8
	MOVQ v_base+72(FP), R9
	MOVQ w_len+8(FP), CX
	VBROADCASTSD b1+96(FP), Y8
	VBROADCASTSD omb1+104(FP), Y9
	VBROADCASTSD b2+112(FP), Y10
	VBROADCASTSD omb2+120(FP), Y11
	VBROADCASTSD bc1+128(FP), Y12
	VBROADCASTSD bc2+136(FP), Y13
	VBROADCASTSD lr+144(FP), Y14
	VBROADCASTSD eps+152(FP), Y15
	XORQ AX, AX

adamloop:
	VMOVUPD (SI)(AX*8), Y0      // g
	VMOVUPD (R8)(AX*8), Y1      // m
	VMOVUPD (R9)(AX*8), Y2      // v
	VMULPD  Y8, Y1, Y1          // b1*m
	VMULPD  Y9, Y0, Y3          // omb1*g
	VADDPD  Y3, Y1, Y1          // m' = b1*m + omb1*g
	VMULPD  Y10, Y2, Y2         // b2*v
	VMULPD  Y11, Y0, Y4         // omb2*g
	VMULPD  Y0, Y4, Y4          // (omb2*g)*g
	VADDPD  Y4, Y2, Y2          // v' = b2*v + omb2*g*g
	VMOVUPD Y1, (R8)(AX*8)
	VMOVUPD Y2, (R9)(AX*8)
	VDIVPD  Y12, Y1, Y1         // mh = m'/bc1
	VDIVPD  Y13, Y2, Y2         // vh = v'/bc2
	VSQRTPD Y2, Y2              // sqrt(vh)
	VADDPD  Y15, Y2, Y2         // sqrt(vh)+eps
	VMULPD  Y14, Y1, Y1         // lr*mh
	VDIVPD  Y2, Y1, Y1          // step = lr*mh/(sqrt(vh)+eps)
	VMOVUPD (DI)(AX*8), Y5
	VSUBPD  Y1, Y5, Y5          // w -= step
	VMOVUPD Y5, (DI)(AX*8)
	ADDQ $4, AX
	CMPQ AX, CX
	JL   adamloop
	VZEROUPPER
	RET

// Fused dense-layer backward row update, one pass over W and its
// gradient: for each k, wg[k*out:] += x[k]*g (elementwise lanes, no
// FMA) and dx[k] = dot(g, w[k*out:]) (FMA-reassociated). out = len(g)
// a positive multiple of 8; len(x) = len(dx) = rows of W.
// func linBwdFMA(x, g, w, wg, dx []float64)
TEXT ·linBwdFMA(SB), NOSPLIT, $0-120
	MOVQ x_base+0(FP), R9
	MOVQ x_len+8(FP), R10   // in
	MOVQ g_base+24(FP), SI
	MOVQ g_len+32(FP), CX   // out
	MOVQ w_base+48(FP), DI
	MOVQ wg_base+72(FP), R8
	MOVQ dx_base+96(FP), DX
	XORQ R11, R11           // k

lbk:
	VBROADCASTSD (R9)(R11*8), Y0
	VXORPD Y1, Y1, Y1       // dot accumulators
	VXORPD Y2, Y2, Y2
	XORQ AX, AX             // j

lbj:
	VMOVUPD (SI)(AX*8), Y4
	VMOVUPD 32(SI)(AX*8), Y5
	VMULPD  Y0, Y4, Y6
	VMULPD  Y0, Y5, Y7
	VADDPD  (R8)(AX*8), Y6, Y6
	VADDPD  32(R8)(AX*8), Y7, Y7
	VMOVUPD Y6, (R8)(AX*8)
	VMOVUPD Y7, 32(R8)(AX*8)
	VFMADD231PD (DI)(AX*8), Y4, Y1
	VFMADD231PD 32(DI)(AX*8), Y5, Y2
	ADDQ $8, AX
	CMPQ AX, CX
	JL   lbj

	VADDPD Y2, Y1, Y1
	VEXTRACTF128 $1, Y1, X2
	VADDPD X2, X1, X1
	VHADDPD X1, X1, X1
	VMOVSD X1, (DX)(R11*8)
	LEAQ (DI)(CX*8), DI
	LEAQ (R8)(CX*8), R8
	INCQ R11
	CMPQ R11, R10
	JL   lbk
	VZEROUPPER
	RET

// Fused dense-layer forward row: out = b, then out += x[k]*w[k*out:]
// for every k with x[k] != 0 (matching the scalar path's post-ReLU
// zero skip; NaN x[k] is processed, as in the scalar path). Elementwise
// multiply-then-add lanes only, so the result is bit-identical to the
// scalar loop. Any width, including 0.
//
// The output is strip-mined with the strip held in YMM accumulators
// across the whole k loop, so the inner iteration is broadcast + W
// loads + mul + add — no out-row load/store per k the way a
// column-sweeping axpy pays. Strips are 8 columns wide, then one of 4,
// then a masked strip of the last 1..3 columns (masked-off lanes load
// zeros and are never stored). Strips are independent, and within a
// strip each element accumulates in k-order, so the bits are unchanged.
// func linFwdAVX(x, b, w, out []float64)
TEXT ·linFwdAVX(SB), NOSPLIT, $0-96
	MOVQ x_base+0(FP), R9
	MOVQ x_len+8(FP), R10   // in
	MOVQ b_base+24(FP), BX
	MOVQ w_base+48(FP), DI
	MOVQ out_base+72(FP), DX
	MOVQ out_len+80(FP), CX // out width = row stride of W

	VXORPD X3, X3, X3
	XORQ R12, R12           // column strip offset (elements)
	MOVQ CX, AX             // columns left
fwd8:
	CMPQ AX, $8
	JL   fwd4
	VMOVUPD (BX)(R12*8), Y4   // acc = bias strip
	VMOVUPD 32(BX)(R12*8), Y5
	LEAQ (DI)(R12*8), R13     // &w[0*width + strip]
	XORQ R11, R11             // k
	TESTQ R10, R10
	JZ   fwd8store
fwd8k:
	VMOVSD (R9)(R11*8), X0
	VUCOMISD X3, X0
	JP   fwd8do             // NaN: unordered → process like scalar path
	JE   fwd8skip           // exact zero → skip row k of W
fwd8do:
	VBROADCASTSD (R9)(R11*8), Y0
	VMOVUPD (R13), Y1
	VMOVUPD 32(R13), Y2
	VMULPD  Y0, Y1, Y1
	VMULPD  Y0, Y2, Y2
	VADDPD  Y1, Y4, Y4
	VADDPD  Y2, Y5, Y5
fwd8skip:
	LEAQ (R13)(CX*8), R13   // next W row, same column strip
	INCQ R11
	CMPQ R11, R10
	JL   fwd8k
fwd8store:
	VMOVUPD Y4, (DX)(R12*8)
	VMOVUPD Y5, 32(DX)(R12*8)
	ADDQ $8, R12
	SUBQ $8, AX
	JMP  fwd8

fwd4:
	CMPQ AX, $4
	JL   fwdtail
	VMOVUPD (BX)(R12*8), Y4
	LEAQ (DI)(R12*8), R13
	XORQ R11, R11
	TESTQ R10, R10
	JZ   fwd4store
fwd4k:
	VMOVSD (R9)(R11*8), X0
	VUCOMISD X3, X0
	JP   fwd4do
	JE   fwd4skip
fwd4do:
	VBROADCASTSD (R9)(R11*8), Y0
	VMULPD  (R13), Y0, Y1
	VADDPD  Y1, Y4, Y4
fwd4skip:
	LEAQ (R13)(CX*8), R13
	INCQ R11
	CMPQ R11, R10
	JL   fwd4k
fwd4store:
	VMOVUPD Y4, (DX)(R12*8)
	ADDQ $4, R12
	SUBQ $4, AX

fwdtail:
	TESTQ AX, AX
	JZ   fwddone
	LEAQ tailmask<>(SB), SI
	MOVQ $3, R8
	SUBQ AX, R8
	VMOVUPD (SI)(R8*8), Y6    // lanes [0, AX) set
	VMASKMOVPD (BX)(R12*8), Y6, Y4
	LEAQ (DI)(R12*8), R13
	XORQ R11, R11
	TESTQ R10, R10
	JZ   fwdtailstore
fwdtailk:
	VMOVSD (R9)(R11*8), X0
	VUCOMISD X3, X0
	JP   fwdtaildo
	JE   fwdtailskip
fwdtaildo:
	VBROADCASTSD (R9)(R11*8), Y0
	VMASKMOVPD (R13), Y6, Y1
	VMULPD  Y0, Y1, Y1
	VADDPD  Y1, Y4, Y4
fwdtailskip:
	LEAQ (R13)(CX*8), R13
	INCQ R11
	CMPQ R11, R10
	JL   fwdtailk
fwdtailstore:
	VMASKMOVPD Y4, Y6, (DX)(R12*8)
fwddone:
	VZEROUPPER
	RET

// Exact dense-layer backward over 4k rows of W (len(x) a positive
// multiple of 4; the caller handles the remaining rows). For each
// block of four rows k..k+3 it sweeps the columns once:
//
//	wg[r*out+j] += x[r]*g[j]        elementwise lanes, no FMA
//	dx[r] = Σ_j g[j]*w[r*out+j]     one lane per row, j in order
//
// The four rows' products for columns j..j+3 are formed lane-wise and
// transposed in registers, then added into the row accumulators one
// column at a time, so each lane runs exactly the scalar in-order
// reduction (separate multiply and add, starting from +0) while four
// rows' dependency chains proceed together. The last 1..3 columns use
// masked loads; their masked-off lanes contribute g=+0 times w=+0 =
// +0, and an accumulator that starts at +0 can never be -0, so adding
// that +0 leaves it unchanged. Masked-off wg lanes are never stored.
// func linBwdAVX(x, g, w, wg, dx []float64)
TEXT ·linBwdAVX(SB), NOSPLIT, $0-120
	MOVQ x_base+0(FP), R9
	MOVQ x_len+8(FP), R10   // rows, multiple of 4
	MOVQ g_base+24(FP), SI
	MOVQ g_len+32(FP), CX   // out
	MOVQ w_base+48(FP), DI
	MOVQ wg_base+72(FP), R8
	MOVQ dx_base+96(FP), DX

	MOVQ CX, R14
	SHLQ $3, R14            // row stride in bytes
	LEAQ (R14)(R14*2), R13  // 3 × row stride
	MOVQ CX, AX
	ANDQ $3, AX             // tail columns
	LEAQ tailmask<>(SB), BX
	MOVQ $3, R12
	SUBQ AX, R12
	VMOVUPD (BX)(R12*8), Y15 // tail lanes mask (all clear when no tail)
	ANDQ $-4, CX            // full 4-column blocks
	XORQ R11, R11           // k

bwdk:
	VBROADCASTSD (R9)(R11*8), Y8
	VBROADCASTSD 8(R9)(R11*8), Y9
	VBROADCASTSD 16(R9)(R11*8), Y10
	VBROADCASTSD 24(R9)(R11*8), Y11
	VXORPD Y12, Y12, Y12    // lane r = dx[k+r]
	XORQ AX, AX             // j
	CMPQ AX, CX
	JGE  bwdtail

bwdj:
	VMOVUPD (SI)(AX*8), Y0  // g[j:j+4]
	LEAQ (DI)(AX*8), R12
	LEAQ (R8)(AX*8), BX
	VMULPD (R12), Y0, Y1    // row products g*w
	VMULPD (R12)(R14*1), Y0, Y2
	VMULPD (R12)(R14*2), Y0, Y3
	VMULPD (R12)(R13*1), Y0, Y4
	VMULPD Y8, Y0, Y5       // wg rows += x*g
	VADDPD (BX), Y5, Y5
	VMOVUPD Y5, (BX)
	VMULPD Y9, Y0, Y6
	VADDPD (BX)(R14*1), Y6, Y6
	VMOVUPD Y6, (BX)(R14*1)
	VMULPD Y10, Y0, Y7
	VADDPD (BX)(R14*2), Y7, Y7
	VMOVUPD Y7, (BX)(R14*2)
	VMULPD Y11, Y0, Y5
	VADDPD (BX)(R13*1), Y5, Y5
	VMOVUPD Y5, (BX)(R13*1)
	VUNPCKLPD Y2, Y1, Y5    // transpose: Y2..Y5 = columns j..j+3
	VUNPCKHPD Y2, Y1, Y6
	VUNPCKLPD Y4, Y3, Y7
	VUNPCKHPD Y4, Y3, Y1
	VPERM2F128 $0x20, Y7, Y5, Y2
	VPERM2F128 $0x20, Y1, Y6, Y3
	VPERM2F128 $0x31, Y7, Y5, Y4
	VPERM2F128 $0x31, Y1, Y6, Y5
	VADDPD Y2, Y12, Y12     // acc += column, in j order
	VADDPD Y3, Y12, Y12
	VADDPD Y4, Y12, Y12
	VADDPD Y5, Y12, Y12
	ADDQ $4, AX
	CMPQ AX, CX
	JL   bwdj

bwdtail:
	VTESTPD Y15, Y15
	JZ   bwdstore
	VMASKMOVPD (SI)(AX*8), Y15, Y0
	LEAQ (DI)(AX*8), R12
	LEAQ (R8)(AX*8), BX
	VMASKMOVPD (R12), Y15, Y1
	VMULPD Y1, Y0, Y1
	VMASKMOVPD (R12)(R14*1), Y15, Y2
	VMULPD Y2, Y0, Y2
	VMASKMOVPD (R12)(R14*2), Y15, Y3
	VMULPD Y3, Y0, Y3
	VMASKMOVPD (R12)(R13*1), Y15, Y4
	VMULPD Y4, Y0, Y4
	VMASKMOVPD (BX), Y15, Y6
	VMULPD Y8, Y0, Y5
	VADDPD Y6, Y5, Y5
	VMASKMOVPD Y5, Y15, (BX)
	VMASKMOVPD (BX)(R14*1), Y15, Y6
	VMULPD Y9, Y0, Y5
	VADDPD Y6, Y5, Y5
	VMASKMOVPD Y5, Y15, (BX)(R14*1)
	VMASKMOVPD (BX)(R14*2), Y15, Y6
	VMULPD Y10, Y0, Y5
	VADDPD Y6, Y5, Y5
	VMASKMOVPD Y5, Y15, (BX)(R14*2)
	VMASKMOVPD (BX)(R13*1), Y15, Y6
	VMULPD Y11, Y0, Y5
	VADDPD Y6, Y5, Y5
	VMASKMOVPD Y5, Y15, (BX)(R13*1)
	VUNPCKLPD Y2, Y1, Y5
	VUNPCKHPD Y2, Y1, Y6
	VUNPCKLPD Y4, Y3, Y7
	VUNPCKHPD Y4, Y3, Y1
	VPERM2F128 $0x20, Y7, Y5, Y2
	VPERM2F128 $0x20, Y1, Y6, Y3
	VPERM2F128 $0x31, Y7, Y5, Y4
	VPERM2F128 $0x31, Y1, Y6, Y5
	VADDPD Y2, Y12, Y12
	VADDPD Y3, Y12, Y12
	VADDPD Y4, Y12, Y12
	VADDPD Y5, Y12, Y12

bwdstore:
	VMOVUPD Y12, (DX)(R11*8)
	LEAQ (DI)(R14*4), DI    // next four rows of W and its gradient
	LEAQ (R8)(R14*4), R8
	ADDQ $4, R11
	CMPQ R11, R10
	JL   bwdk
	VZEROUPPER
	RET

// tailmask<>+(3-n)*8 is a 4-lane mask with lanes [0, n) set, n = 0..3.
DATA tailmask<>+0(SB)/8, $-1
DATA tailmask<>+8(SB)/8, $-1
DATA tailmask<>+16(SB)/8, $-1
DATA tailmask<>+24(SB)/8, $0
DATA tailmask<>+32(SB)/8, $0
DATA tailmask<>+40(SB)/8, $0
DATA tailmask<>+48(SB)/8, $0
GLOBL tailmask<>(SB), RODATA|NOPTR, $56

// Squared Euclidean distances from q to the 8 points of one dim-major
// packed block: out[p] = Σ_j (q[j]-block[j*8+p])², accumulated in
// j-order per lane with separate subtract/multiply/add (no FMA), so
// every lane produces exactly the bits of a scalar SquaredEuclidean
// over that point. len(q) = dim (0 allowed: out is zeroed),
// len(block) = dim*8, len(out) = 8.
// func distPackAVX(q, block, out []float64)
TEXT ·distPackAVX(SB), NOSPLIT, $0-72
	MOVQ q_base+0(FP), SI
	MOVQ q_len+8(FP), CX    // dim
	MOVQ block_base+24(FP), DI
	MOVQ out_base+48(FP), DX
	VXORPD Y4, Y4, Y4       // acc lanes 0..3
	VXORPD Y5, Y5, Y5       // acc lanes 4..7
	XORQ AX, AX             // j
	TESTQ CX, CX
	JZ   dpdone
dploop:
	VBROADCASTSD (SI)(AX*8), Y0
	VMOVUPD (DI), Y1
	VMOVUPD 32(DI), Y2
	VSUBPD  Y1, Y0, Y1      // q[j] - p[j], lanes 0..3
	VSUBPD  Y2, Y0, Y2      // lanes 4..7
	VMULPD  Y1, Y1, Y1
	VMULPD  Y2, Y2, Y2
	VADDPD  Y1, Y4, Y4
	VADDPD  Y2, Y5, Y5
	ADDQ $64, DI
	INCQ AX
	CMPQ AX, CX
	JL   dploop
dpdone:
	VMOVUPD Y4, (DX)
	VMOVUPD Y5, 32(DX)
	VZEROUPPER
	RET

// One layer-norm output row: out[j] = ((x[j]-m)*inv)*gain[j] + bias[j]
// — the exact scalar operation sequence (separate subtract and two
// multiplies, never an FMA), four lanes at a time, so the result is
// bit-identical to the Go loop. len(x) a positive multiple of 4; the
// caller handles tails.
// func normRowAVX(x, gain, bias, out []float64, m, inv float64)
TEXT ·normRowAVX(SB), NOSPLIT, $0-112
	MOVQ x_base+0(FP), SI
	MOVQ x_len+8(FP), CX
	MOVQ gain_base+24(FP), R8
	MOVQ bias_base+48(FP), R9
	MOVQ out_base+72(FP), DX
	VBROADCASTSD m+96(FP), Y8
	VBROADCASTSD inv+104(FP), Y9
	XORQ AX, AX
nrloop:
	VMOVUPD (SI)(AX*8), Y0
	VSUBPD  Y8, Y0, Y0            // x - m
	VMULPD  Y9, Y0, Y0            // * inv
	VMULPD  (R8)(AX*8), Y0, Y0    // * gain
	VADDPD  (R9)(AX*8), Y0, Y0    // + bias
	VMOVUPD Y0, (DX)(AX*8)
	ADDQ $4, AX
	CMPQ AX, CX
	JL   nrloop
	VZEROUPPER
	RET
