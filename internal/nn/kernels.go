package nn

import "runtime"

// The matrix-product kernels under MatMul, Linear, ScaledMatMulT and
// SoftmaxMatMul. LocMatcher's products are tiny — inner dimensions 4, 8 and
// 32, a few dozen rows — and run ~350,000 times per training run, so what
// these loops avoid is overhead, not arithmetic: no per-row closure, output
// columns taken eight (then four, then one) at a time with their running
// sums in registers, one bounds check per block.
//
// The order contract. Every kernel performs exactly the floating-point
// operations of the textbook loops below, each output element's sum taken
// over the same index in the same (ascending) direction from the same
// starting value, so results are bit-identical to them on any platform whose
// compiler does not contract a*b+c (amd64; identity is asserted there, and
// nothing here uses math.FMA or reassociates a sum):
//
//	forward  out[i][j]  =  Σ_kk a[i][kk]·b[kk][j]    kk ascending from +0, terms with a[i][kk] == 0 skipped
//	dA       ga[i][kk] +=  Σ_j  g[i][j]·b[kk][j]     j ascending from +0, then one add into ga
//	dB       gb[kk][j] +=  Σ_i  a[i][kk]·g[i][j]     i ascending, each term added into gb in turn, a[i][kk] == 0 skipped
//
// Blocking only chooses which independent sums advance together; it never
// splits or reorders one sum. The zero skip stays because it is observable:
// 0·Inf is NaN, and ReLU output — exact zeros by the dozen — is the left
// operand of every encoder layer's second feed-forward product.
//
// Each kernel first hands its blocks of four rows by four columns to the
// lane tile (lanes.go) when the processor has one, then runs its Go loops
// over what is left: the last columns of those rows, then the last rows.

// matMulRows writes rows [i0,i1) of out = a·b (+ bias per row when bias is
// non-nil, added after the sum), a [m,k], b [k,n]. Every element of those
// rows is overwritten; out needs no zeroing.
func matMulRows(out, a, b, bias []float64, k, n, i0, i1 int) {
	if i4, n4 := laneBlock(i0, i1, n, k); i4 > i0 {
		tile(out[i0*n:], a[i0*k:], b, bias, i4-i0, n4, k, n, k, 1, n, 0, tileSkipX)
		matMulRowsGo(out, a, b, bias, k, n, n4, i0, i4)
		i0 = i4
	}
	matMulRowsGo(out, a, b, bias, k, n, 0, i0, i1)
}

// matMulRowsGo is matMulRows over the columns [j0,n) of its rows.
func matMulRowsGo(out, a, b, bias []float64, k, n, j0, i0, i1 int) {
	for i := i0; i < i1; i++ {
		arow := a[i*k : i*k+k]
		orow := out[i*n : i*n+n]
		j := j0
		for ; j+8 <= n; j += 8 {
			var s0, s1, s2, s3, s4, s5, s6, s7 float64
			off := j
			for _, av := range arow {
				if av != 0 {
					bb := (*[8]float64)(b[off : off+8])
					s0 += av * bb[0]
					s1 += av * bb[1]
					s2 += av * bb[2]
					s3 += av * bb[3]
					s4 += av * bb[4]
					s5 += av * bb[5]
					s6 += av * bb[6]
					s7 += av * bb[7]
				}
				off += n
			}
			if bias != nil {
				c := (*[8]float64)(bias[j : j+8])
				s0, s1, s2, s3 = s0+c[0], s1+c[1], s2+c[2], s3+c[3]
				s4, s5, s6, s7 = s4+c[4], s5+c[5], s6+c[6], s7+c[7]
			}
			o := (*[8]float64)(orow[j : j+8])
			o[0], o[1], o[2], o[3], o[4], o[5], o[6], o[7] = s0, s1, s2, s3, s4, s5, s6, s7
		}
		for ; j+4 <= n; j += 4 {
			var s0, s1, s2, s3 float64
			off := j
			for _, av := range arow {
				if av != 0 {
					bb := (*[4]float64)(b[off : off+4])
					s0 += av * bb[0]
					s1 += av * bb[1]
					s2 += av * bb[2]
					s3 += av * bb[3]
				}
				off += n
			}
			if bias != nil {
				c := (*[4]float64)(bias[j : j+4])
				s0, s1, s2, s3 = s0+c[0], s1+c[1], s2+c[2], s3+c[3]
			}
			o := (*[4]float64)(orow[j : j+4])
			o[0], o[1], o[2], o[3] = s0, s1, s2, s3
		}
		for ; j < n; j++ {
			var s float64
			off := j
			for _, av := range arow {
				if av != 0 {
					s += av * b[off]
				}
				off += n
			}
			if bias != nil {
				s += bias[j]
			}
			orow[j] = s
		}
	}
}

// matMulGradA accumulates rows [i0,i1) of ga += g·bᵀ, g [m,n], b [k,n],
// ga [m,k]. bT is bᵀ [n,k] (laneTranspose), the tile's lane operand, or nil
// for the Go kernel alone.
func matMulGradA(ga, g, b, bT []float64, k, n, i0, i1 int) {
	if i4, k4 := laneBlock(i0, i1, k, n); i4 > i0 && bT != nil {
		tile(ga[i0*k:], g[i0*n:], bT, nil, i4-i0, k4, n, k, n, 1, k, 0, tileAddInto)
		matMulGradAGo(ga, g, b, k, n, k4, i0, i4)
		i0 = i4
	}
	matMulGradAGo(ga, g, b, k, n, 0, i0, i1)
}

// matMulGradAGo is matMulGradA over the columns [kk0,k) of its rows. For
// n = 4 and n = 8 — LocMatcher's head and model widths — the gradient row is
// held in registers and each dot product is written out; otherwise four of a
// row's dot products advance together.
func matMulGradAGo(ga, g, b []float64, k, n, kk0, i0, i1 int) {
	switch n {
	case 4:
		for i := i0; i < i1; i++ {
			gr := (*[4]float64)(g[i*4 : i*4+4])
			g0, g1, g2, g3 := gr[0], gr[1], gr[2], gr[3]
			arow := ga[i*k : i*k+k]
			for kk := kk0; kk < len(arow); kk++ {
				bb := (*[4]float64)(b[kk*4 : kk*4+4])
				var s float64
				s += g0 * bb[0]
				s += g1 * bb[1]
				s += g2 * bb[2]
				s += g3 * bb[3]
				arow[kk] += s
			}
		}
		return
	case 8:
		for i := i0; i < i1; i++ {
			gr := (*[8]float64)(g[i*8 : i*8+8])
			g0, g1, g2, g3, g4, g5, g6, g7 := gr[0], gr[1], gr[2], gr[3], gr[4], gr[5], gr[6], gr[7]
			arow := ga[i*k : i*k+k]
			for kk := kk0; kk < len(arow); kk++ {
				bb := (*[8]float64)(b[kk*8 : kk*8+8])
				var s float64
				s += g0 * bb[0]
				s += g1 * bb[1]
				s += g2 * bb[2]
				s += g3 * bb[3]
				s += g4 * bb[4]
				s += g5 * bb[5]
				s += g6 * bb[6]
				s += g7 * bb[7]
				arow[kk] += s
			}
		}
		return
	}
	for i := i0; i < i1; i++ {
		grow := g[i*n : i*n+n]
		arow := ga[i*k : i*k+k]
		kk := kk0
		for ; kk+4 <= k; kk += 4 {
			b0 := b[kk*n : kk*n+n][:len(grow)]
			b1 := b[(kk+1)*n : (kk+1)*n+n][:len(grow)]
			b2 := b[(kk+2)*n : (kk+2)*n+n][:len(grow)]
			b3 := b[(kk+3)*n : (kk+3)*n+n][:len(grow)]
			var s0, s1, s2, s3 float64
			for j, gv := range grow {
				s0 += gv * b0[j]
				s1 += gv * b1[j]
				s2 += gv * b2[j]
				s3 += gv * b3[j]
			}
			o := (*[4]float64)(arow[kk : kk+4])
			o[0] += s0
			o[1] += s1
			o[2] += s2
			o[3] += s3
		}
		for ; kk < k; kk++ {
			brow := b[kk*n : kk*n+n][:len(grow)]
			var s float64
			for j, gv := range grow {
				s += gv * brow[j]
			}
			arow[kk] += s
		}
	}
}

// matMulGradB accumulates rows [k0,k1) of gb += aᵀ·g, a [m,k], g [m,n],
// gb [k,n]. The running sums start from gb's current values — the terms are
// added into the gradient one by one, not summed first — and are held in
// registers across the m rows.
func matMulGradB(gb, a, g []float64, m, k, n, k0, k1 int) {
	if k4, n4 := laneBlock(k0, k1, n, m); k4 > k0 {
		tile(gb[k0*n:], a[k0:], g, nil, k4-k0, n4, m, n, 1, k, n, 0, tileFromOut|tileSkipX)
		matMulGradBGo(gb, a, g, m, k, n, n4, k0, k4)
		k0 = k4
	}
	matMulGradBGo(gb, a, g, m, k, n, 0, k0, k1)
}

// matMulGradBGo is matMulGradB over the columns [j0,n) of its rows.
func matMulGradBGo(gb, a, g []float64, m, k, n, j0, k0, k1 int) {
	for kk := k0; kk < k1; kk++ {
		brow := gb[kk*n : kk*n+n]
		j := j0
		for ; j+8 <= n; j += 8 {
			o := (*[8]float64)(brow[j : j+8])
			s0, s1, s2, s3, s4, s5, s6, s7 := o[0], o[1], o[2], o[3], o[4], o[5], o[6], o[7]
			ai, gi := kk, j
			for i := 0; i < m; i++ {
				if av := a[ai]; av != 0 {
					gg := (*[8]float64)(g[gi : gi+8])
					s0 += av * gg[0]
					s1 += av * gg[1]
					s2 += av * gg[2]
					s3 += av * gg[3]
					s4 += av * gg[4]
					s5 += av * gg[5]
					s6 += av * gg[6]
					s7 += av * gg[7]
				}
				ai += k
				gi += n
			}
			o[0], o[1], o[2], o[3], o[4], o[5], o[6], o[7] = s0, s1, s2, s3, s4, s5, s6, s7
		}
		for ; j+4 <= n; j += 4 {
			o := (*[4]float64)(brow[j : j+4])
			s0, s1, s2, s3 := o[0], o[1], o[2], o[3]
			ai, gi := kk, j
			for i := 0; i < m; i++ {
				if av := a[ai]; av != 0 {
					gg := (*[4]float64)(g[gi : gi+4])
					s0 += av * gg[0]
					s1 += av * gg[1]
					s2 += av * gg[2]
					s3 += av * gg[3]
				}
				ai += k
				gi += n
			}
			o[0], o[1], o[2], o[3] = s0, s1, s2, s3
		}
		for ; j < n; j++ {
			s := brow[j]
			ai, gi := kk, j
			for i := 0; i < m; i++ {
				if av := a[ai]; av != 0 {
					s += av * g[gi]
				}
				ai += k
				gi += n
			}
			brow[j] = s
		}
	}
}

// addRowsInto adds each row of g (rows of n) into dst in turn, rows
// ascending — a bias gradient.
func addRowsInto(dst, g []float64, n int) {
	dst = dst[:n]
	for ; len(g) >= n; g = g[n:] {
		for j, v := range g[:n] {
			dst[j] += v
		}
	}
}

// scaledMatMulT writes out = (a·bᵀ)·s, a [m,d], b [n,d]: each element is the
// forward sum of the contract above over b's row instead of a column, then
// one multiplication by s. bT is bᵀ [d,n] (laneTranspose), the tile's lane
// operand, or nil for the Go kernel alone.
func scaledMatMulT(out, a, b, bT []float64, s float64, m, d, n int) {
	i0 := 0
	if i4, n4 := laneBlock(0, m, n, d); i4 > 0 && bT != nil {
		tile(out, a, bT, nil, i4, n4, d, n, d, 1, n, s, tileSkipX|tileScaleSum)
		scaledMatMulTGo(out, a, b, s, d, n, n4, 0, i4)
		i0 = i4
	}
	scaledMatMulTGo(out, a, b, s, d, n, 0, i0, m)
}

// scaledMatMulTGo is scaledMatMulT over rows [i0,i1) and columns [j0,n).
// Rows of four without a zero — attention's q with two heads over z = 8 —
// take the unrolled path.
func scaledMatMulTGo(out, a, b []float64, s float64, d, n, j0, i0, i1 int) {
	for i := i0; i < i1; i++ {
		arow := a[i*d : i*d+d]
		orow := out[i*n : i*n+n]
		if d == 4 && arow[0] != 0 && arow[1] != 0 && arow[2] != 0 && arow[3] != 0 {
			a0, a1, a2, a3 := arow[0], arow[1], arow[2], arow[3]
			for j := j0; j < n; j++ {
				bb := (*[4]float64)(b[j*4 : j*4+4])
				var sum float64
				sum += a0 * bb[0]
				sum += a1 * bb[1]
				sum += a2 * bb[2]
				sum += a3 * bb[3]
				orow[j] = sum * s
			}
			continue
		}
		for j := j0; j < n; j++ {
			brow := b[j*d : j*d+d]
			var sum float64
			for kk, av := range arow {
				if av != 0 {
					sum += av * brow[kk]
				}
			}
			orow[j] = sum * s
		}
	}
}

// scaledMatMulTGradA accumulates ga += (g·s)·b: the dA sum of the contract
// with g's elements scaled by s as they are read.
func scaledMatMulTGradA(ga, g, b []float64, s float64, m, d, n int) {
	i0 := 0
	if i4, d4 := laneBlock(0, m, d, n); i4 > 0 {
		tile(ga, g, b, nil, i4, d4, n, d, n, 1, d, s, tileScaleX|tileAddInto)
		scaledMatMulTGradAGo(ga, g, b, s, d, n, d4, 0, i4)
		i0 = i4
	}
	scaledMatMulTGradAGo(ga, g, b, s, d, n, 0, i0, m)
}

// scaledMatMulTGradAGo is scaledMatMulTGradA over rows [i0,i1) and columns
// [kk0,d).
func scaledMatMulTGradAGo(ga, g, b []float64, s float64, d, n, kk0, i0, i1 int) {
	for i := i0; i < i1; i++ {
		grow := g[i*n : i*n+n]
		arow := ga[i*d : i*d+d]
		kk := kk0
		for ; kk+4 <= d; kk += 4 {
			var s0, s1, s2, s3 float64
			off := kk
			for _, gv := range grow {
				dv := gv * s
				bb := (*[4]float64)(b[off : off+4])
				s0 += dv * bb[0]
				s1 += dv * bb[1]
				s2 += dv * bb[2]
				s3 += dv * bb[3]
				off += d
			}
			o := (*[4]float64)(arow[kk : kk+4])
			o[0] += s0
			o[1] += s1
			o[2] += s2
			o[3] += s3
		}
		for ; kk < d; kk++ {
			var sum float64
			off := kk
			for _, gv := range grow {
				sum += gv * s * b[off]
				off += d
			}
			arow[kk] += sum
		}
	}
}

// scaledMatMulTGradB accumulates gb += (g·s)ᵀ·a. The composition sums each
// element of the transposed gradient from +0 (i ascending, a[i][kk] == 0
// skipped) and then adds that sum into b's gradient once, so this does too.
func scaledMatMulTGradB(gb, a, g []float64, s float64, m, d, n int) {
	j0 := 0
	if j4, d4 := laneBlock(0, n, d, m); j4 > 0 {
		tile(gb, g, a, nil, j4, d4, m, d, 1, n, d, s, tileScaleX|tileSkipY|tileAddInto)
		scaledMatMulTGradBGo(gb, a, g, s, m, d, n, d4, 0, j4)
		j0 = j4
	}
	scaledMatMulTGradBGo(gb, a, g, s, m, d, n, 0, j0, n)
}

// scaledMatMulTGradBGo is scaledMatMulTGradB over rows [j0,j1) of gb and
// columns [kk0,d).
func scaledMatMulTGradBGo(gb, a, g []float64, s float64, m, d, n, kk0, j0, j1 int) {
	for j := j0; j < j1; j++ {
		brow := gb[j*d : j*d+d]
		kk := kk0
		for ; kk+4 <= d; kk += 4 {
			var t0, t1, t2, t3 float64
			ai, gi := kk, j
			for i := 0; i < m; i++ {
				dv := g[gi] * s
				aa := (*[4]float64)(a[ai : ai+4])
				if aa[0] != 0 {
					t0 += aa[0] * dv
				}
				if aa[1] != 0 {
					t1 += aa[1] * dv
				}
				if aa[2] != 0 {
					t2 += aa[2] * dv
				}
				if aa[3] != 0 {
					t3 += aa[3] * dv
				}
				ai += d
				gi += n
			}
			o := (*[4]float64)(brow[kk : kk+4])
			o[0] += t0
			o[1] += t1
			o[2] += t2
			o[3] += t3
		}
		for ; kk < d; kk++ {
			var t float64
			ai, gi := kk, j
			for i := 0; i < m; i++ {
				if av := a[ai]; av != 0 {
					t += av * (g[gi] * s)
				}
				ai += d
				gi += n
			}
			brow[kk] += t
		}
	}
}

// matMulParallelFlops is the m*k*n product above which a matrix product
// splits its rows across cores. The threshold sits far above LocMatcher's
// per-sample matrix sizes on purpose: data-parallel training already
// saturates the cores with sample-level workers, and nesting goroutines
// under them would only add scheduling overhead. Large single-graph models
// do cross it.
var matMulParallelFlops = 1 << 17

// matMulForward, matMulBackA and matMulBackB run the three kernels over a
// whole product: in one call below matMulParallelFlops, above it in one
// contiguous row block per core. Every output row is computed independently
// by the same kernel either way, so the split changes no bit of the result.
// (The closures exist only on the parallel branch; the serial one allocates
// nothing.)
func matMulForward(out, a, b, bias []float64, m, k, n int) {
	if m*k*n < matMulParallelFlops {
		matMulRows(out, a, b, bias, k, n, 0, m)
		return
	}
	rowBlocks(m, func(lo, hi int) { matMulRows(out, a, b, bias, k, n, lo, hi) })
}

func matMulBackA(ga, g, b, bT []float64, m, k, n int) {
	if m*k*n < matMulParallelFlops {
		matMulGradA(ga, g, b, bT, k, n, 0, m)
		return
	}
	rowBlocks(m, func(lo, hi int) { matMulGradA(ga, g, b, bT, k, n, lo, hi) })
}

func matMulBackB(gb, a, g []float64, m, k, n int) {
	if m*k*n < matMulParallelFlops {
		matMulGradB(gb, a, g, m, k, n, 0, k)
		return
	}
	rowBlocks(k, func(lo, hi int) { matMulGradB(gb, a, g, m, k, n, lo, hi) })
}

// rowBlocks splits [0,rows) into one contiguous block per core and runs
// kernel on each, concurrently.
func rowBlocks(rows int, kernel func(lo, hi int)) {
	workers := min(runtime.GOMAXPROCS(0), rows)
	ParallelFor(workers, workers, func(w int) {
		kernel(rows*w/workers, rows*(w+1)/workers)
	})
}
