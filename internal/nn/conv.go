package nn

import (
	"fmt"
	"math"
	"math/rand"
)

// Conv2D applies a 2-D convolution with stride 1 and "same" zero padding.
// x has shape [C,H,W], w has shape [F,C,KH,KW] with odd kernel sizes, and
// bias has shape [F]. The output has shape [F,H,W].
func Conv2D(x, w, bias *Tensor) *Tensor {
	if len(x.Shape) != 3 || len(w.Shape) != 4 {
		panic(fmt.Sprintf("nn: Conv2D shapes x=%v w=%v", x.Shape, w.Shape))
	}
	c, h, wd := x.Shape[0], x.Shape[1], x.Shape[2]
	f, wc, kh, kw := w.Shape[0], w.Shape[1], w.Shape[2], w.Shape[3]
	if wc != c || kh%2 == 0 || kw%2 == 0 || bias.Numel() != f {
		panic(fmt.Sprintf("nn: Conv2D incompatible shapes x=%v w=%v bias=%v", x.Shape, w.Shape, bias.Shape))
	}
	ph, pw := kh/2, kw/2
	out := newResult([]int{f, h, wd}, x, w, bias)
	xAt := func(ci, yi, xi int) float64 {
		if yi < 0 || yi >= h || xi < 0 || xi >= wd {
			return 0
		}
		return x.Data[(ci*h+yi)*wd+xi]
	}
	for fi := 0; fi < f; fi++ {
		for y := 0; y < h; y++ {
			for xx := 0; xx < wd; xx++ {
				s := bias.Data[fi]
				for ci := 0; ci < c; ci++ {
					for ky := 0; ky < kh; ky++ {
						for kx := 0; kx < kw; kx++ {
							s += xAt(ci, y+ky-ph, xx+kx-pw) * w.Data[((fi*c+ci)*kh+ky)*kw+kx]
						}
					}
				}
				out.Data[(fi*h+y)*wd+xx] = s
			}
		}
	}
	out.setBack(func(out *Tensor) {
		if bias.needGrad {
			bias.ensureGrad()
			for fi := 0; fi < f; fi++ {
				var s float64
				for i := 0; i < h*wd; i++ {
					s += out.Grad[fi*h*wd+i]
				}
				bias.Grad[fi] += s
			}
		}
		if w.needGrad {
			w.ensureGrad()
			for fi := 0; fi < f; fi++ {
				for ci := 0; ci < c; ci++ {
					for ky := 0; ky < kh; ky++ {
						for kx := 0; kx < kw; kx++ {
							var s float64
							for y := 0; y < h; y++ {
								for xx := 0; xx < wd; xx++ {
									s += out.Grad[(fi*h+y)*wd+xx] * xAt(ci, y+ky-ph, xx+kx-pw)
								}
							}
							w.Grad[((fi*c+ci)*kh+ky)*kw+kx] += s
						}
					}
				}
			}
		}
		if x.needGrad {
			x.ensureGrad()
			for fi := 0; fi < f; fi++ {
				for y := 0; y < h; y++ {
					for xx := 0; xx < wd; xx++ {
						g := out.Grad[(fi*h+y)*wd+xx]
						if g == 0 {
							continue
						}
						for ci := 0; ci < c; ci++ {
							for ky := 0; ky < kh; ky++ {
								yi := y + ky - ph
								if yi < 0 || yi >= h {
									continue
								}
								for kx := 0; kx < kw; kx++ {
									xi := xx + kx - pw
									if xi < 0 || xi >= wd {
										continue
									}
									x.Grad[(ci*h+yi)*wd+xi] += g * w.Data[((fi*c+ci)*kh+ky)*kw+kx]
								}
							}
						}
					}
				}
			}
		}
	})
	return out
}

// MaxPool2D applies 2x2 max pooling with stride 2 and ceil semantics
// (partial windows at the right/bottom edges are pooled over the available
// elements), so odd spatial sizes like the UNet baseline's 9x9 grid work.
func MaxPool2D(x *Tensor) *Tensor {
	if len(x.Shape) != 3 {
		panic(fmt.Sprintf("nn: MaxPool2D requires [C,H,W], got %v", x.Shape))
	}
	c, h, w := x.Shape[0], x.Shape[1], x.Shape[2]
	oh, ow := (h+1)/2, (w+1)/2
	out := newResult([]int{c, oh, ow}, x)
	argmax := make([]int, c*oh*ow)
	for ci := 0; ci < c; ci++ {
		for y := 0; y < oh; y++ {
			for xx := 0; xx < ow; xx++ {
				best := math.Inf(-1)
				bestIdx := -1
				for dy := 0; dy < 2; dy++ {
					for dx := 0; dx < 2; dx++ {
						yi, xi := y*2+dy, xx*2+dx
						if yi >= h || xi >= w {
							continue
						}
						idx := (ci*h+yi)*w + xi
						if v := x.Data[idx]; v > best {
							best = v
							bestIdx = idx
						}
					}
				}
				o := (ci*oh+y)*ow + xx
				out.Data[o] = best
				argmax[o] = bestIdx
			}
		}
	}
	out.setBack(func(out *Tensor) {
		x.ensureGrad()
		for o, idx := range argmax {
			x.Grad[idx] += out.Grad[o]
		}
	})
	return out
}

// UpsampleNearest resizes x [C,h,w] to [C,H,W] by nearest-neighbor sampling.
func UpsampleNearest(x *Tensor, H, W int) *Tensor {
	if len(x.Shape) != 3 {
		panic(fmt.Sprintf("nn: UpsampleNearest requires [C,H,W], got %v", x.Shape))
	}
	c, h, w := x.Shape[0], x.Shape[1], x.Shape[2]
	out := newResult([]int{c, H, W}, x)
	src := make([]int, c*H*W)
	for ci := 0; ci < c; ci++ {
		for y := 0; y < H; y++ {
			yi := y * h / H
			for xx := 0; xx < W; xx++ {
				xi := xx * w / W
				o := (ci*H+y)*W + xx
				s := (ci*h+yi)*w + xi
				out.Data[o] = x.Data[s]
				src[o] = s
			}
		}
	}
	out.setBack(func(out *Tensor) {
		x.ensureGrad()
		for o, s := range src {
			x.Grad[s] += out.Grad[o]
		}
	})
	return out
}

// ConcatChannels concatenates [C_i,H,W] tensors along the channel axis.
func ConcatChannels(ts ...*Tensor) *Tensor {
	if len(ts) == 0 {
		panic("nn: ConcatChannels of nothing")
	}
	h, w := ts[0].Shape[1], ts[0].Shape[2]
	total := 0
	for _, t := range ts {
		if len(t.Shape) != 3 || t.Shape[1] != h || t.Shape[2] != w {
			panic(fmt.Sprintf("nn: ConcatChannels spatial mismatch %v", t.Shape))
		}
		total += t.Shape[0]
	}
	out := newResult([]int{total, h, w}, ts...)
	off := 0
	for _, t := range ts {
		copy(out.Data[off:off+t.Numel()], t.Data)
		off += t.Numel()
	}
	out.setBack(concatFlatBack)
	return out
}

// ConvLayer is a convolution with trainable kernel and bias.
type ConvLayer struct {
	W *Tensor // [F,C,K,K]
	B *Tensor // [F]
}

// NewConvLayer returns a ConvLayer mapping c input channels to f output
// channels with a k x k kernel (k odd).
func NewConvLayer(rng *rand.Rand, c, f, k int) *ConvLayer {
	fanIn, fanOut := c*k*k, f*k*k
	return &ConvLayer{
		W: XavierParam(rng, fanIn, fanOut, f, c, k, k),
		B: ZeroParam(f),
	}
}

// Forward applies the convolution to x [C,H,W].
func (l *ConvLayer) Forward(x *Tensor) *Tensor { return Conv2D(x, l.W, l.B) }

// Params implements Layer.
func (l *ConvLayer) Params() []*Tensor { return []*Tensor{l.W, l.B} }
