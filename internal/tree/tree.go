// Package tree implements the tree-ensemble learners the paper compares
// against: CART decision trees (grown best-first with a leaf budget, as
// GeoRank's 1024-leaf trees require), random forests, and gradient-boosted
// trees with logistic loss. All learners accept per-sample weights so the
// paper's 8:2 class weighting for imbalanced labels is expressible.
//
// Split finding is histogram-based: each feature is quantized to at most
// MaxBins quantile bins once per fit, and candidate splits are scanned over
// bin boundaries in O(n + bins) per feature per node. With fewer unique
// values than bins this is exact CART; otherwise it is the standard
// LightGBM-style approximation.
package tree

import (
	"container/heap"
	"math/rand"
	"sort"
)

// Config controls tree growth.
type Config struct {
	// MaxDepth limits tree depth; 0 means unlimited.
	MaxDepth int
	// MinLeaf is the minimum weighted sample count in a leaf (default 1).
	MinLeaf float64
	// MaxLeafNodes caps the number of leaves via best-first growth; 0 means
	// unlimited. The paper's GeoRank and DLInfMA-RkDT use 1024.
	MaxLeafNodes int
	// FeatureSubset, when positive, samples this many candidate features per
	// split (random forests use sqrt(d)).
	FeatureSubset int
	// MaxBins bounds the per-feature histogram size (default 256).
	MaxBins int
	// Rand supplies randomness for feature subsetting; required when
	// FeatureSubset > 0.
	Rand *rand.Rand
}

type node struct {
	feature   int
	threshold float64
	left      int
	right     int
	value     float64
	leaf      bool
}

// Tree is a trained regression tree. Binary classification trains on 0/1
// targets, making Predict the positive-class probability.
type Tree struct {
	nodes []node
}

// growItem is a pending node in best-first growth.
type growItem struct {
	nodeID  int
	samples []int
	depth   int
	// Best split found for this node; items with higher gain expand first.
	gain      float64
	feature   int
	bin       int // go left when binned value <= bin
	threshold float64
	ok        bool
}

type growHeap []*growItem

func (h growHeap) Len() int            { return len(h) }
func (h growHeap) Less(i, j int) bool  { return h[i].gain > h[j].gain }
func (h growHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *growHeap) Push(x interface{}) { *h = append(*h, x.(*growItem)) }
func (h *growHeap) Pop() interface{} {
	old := *h
	n := len(old)
	x := old[n-1]
	*h = old[:n-1]
	return x
}

// trainer bundles the immutable training inputs plus the feature histograms.
type trainer struct {
	y   []float64
	w   []float64
	cfg Config

	nf        int
	bins      [][]uint16  // bins[f][sample]
	nBins     []int       // bins per feature
	cutpoints [][]float64 // cutpoints[f][b] = split threshold after bin b
	// scratch histogram buffers reused across nodes
	hw, hy, hy2 []float64
}

// Fit trains a regression tree on features x, targets y, and optional
// per-sample weights w (nil means uniform). Splits minimize weighted squared
// error, which for 0/1 targets is equivalent to Gini impurity up to a
// constant factor.
func Fit(x [][]float64, y []float64, w []float64, cfg Config) *Tree {
	if len(x) == 0 {
		return &Tree{nodes: []node{{leaf: true}}}
	}
	if w == nil {
		w = make([]float64, len(x))
		for i := range w {
			w[i] = 1
		}
	}
	if cfg.MinLeaf <= 0 {
		cfg.MinLeaf = 1
	}
	if cfg.MaxBins <= 1 {
		cfg.MaxBins = 256
	}
	tr := &trainer{y: y, w: w, cfg: cfg, nf: len(x[0])}
	tr.quantize(x)

	t := &Tree{}
	all := make([]int, len(x))
	for i := range all {
		all[i] = i
	}
	root := t.addLeaf(tr.mean(all))
	h := &growHeap{}
	item := &growItem{nodeID: root, samples: all, depth: 0}
	tr.findBestSplit(item)
	if item.ok {
		heap.Push(h, item)
	}
	leaves := 1
	for h.Len() > 0 {
		if cfg.MaxLeafNodes > 0 && leaves >= cfg.MaxLeafNodes {
			break
		}
		it := heap.Pop(h).(*growItem)
		binRow := tr.bins[it.feature]
		var ls, rs []int
		for _, s := range it.samples {
			if int(binRow[s]) <= it.bin {
				ls = append(ls, s)
			} else {
				rs = append(rs, s)
			}
		}
		l := t.addLeaf(tr.mean(ls))
		r := t.addLeaf(tr.mean(rs))
		t.nodes[it.nodeID].leaf = false
		t.nodes[it.nodeID].feature = it.feature
		t.nodes[it.nodeID].threshold = it.threshold
		t.nodes[it.nodeID].left = l
		t.nodes[it.nodeID].right = r
		leaves++ // one leaf became two

		for _, child := range []*growItem{
			{nodeID: l, samples: ls, depth: it.depth + 1},
			{nodeID: r, samples: rs, depth: it.depth + 1},
		} {
			if cfg.MaxDepth > 0 && child.depth >= cfg.MaxDepth {
				continue
			}
			tr.findBestSplit(child)
			if child.ok {
				heap.Push(h, child)
			}
		}
	}
	return t
}

// quantize builds per-feature quantile histograms and the binned matrix.
func (tr *trainer) quantize(x [][]float64) {
	n := len(x)
	tr.bins = make([][]uint16, tr.nf)
	tr.nBins = make([]int, tr.nf)
	tr.cutpoints = make([][]float64, tr.nf)
	vals := make([]float64, n)
	maxBins := 0
	for f := 0; f < tr.nf; f++ {
		for i := range x {
			vals[i] = x[i][f]
		}
		sorted := append([]float64(nil), vals...)
		sort.Float64s(sorted)
		// Unique values.
		uniq := sorted[:0]
		for i, v := range sorted {
			if i == 0 || v != uniq[len(uniq)-1] {
				uniq = append(uniq, v)
			}
		}
		var bounds []float64 // upper value of each bin except the last
		if len(uniq) <= tr.cfg.MaxBins {
			bounds = append([]float64(nil), uniq...)
		} else {
			for b := 1; b <= tr.cfg.MaxBins; b++ {
				bounds = append(bounds, uniq[(b*len(uniq)-1)/tr.cfg.MaxBins])
			}
		}
		nb := len(bounds)
		tr.nBins[f] = nb
		// Cutpoint after bin b: midpoint between bin b's upper bound and the
		// next bin's upper-bound-representative (its minimum is unknown, the
		// midpoint of consecutive bounds is a faithful stand-in).
		cps := make([]float64, nb)
		for b := 0; b+1 < nb; b++ {
			cps[b] = (bounds[b] + bounds[b+1]) / 2
		}
		if nb > 0 {
			cps[nb-1] = bounds[nb-1]
		}
		tr.cutpoints[f] = cps
		row := make([]uint16, n)
		for i, v := range vals {
			b := sort.SearchFloat64s(bounds, v)
			if b >= nb {
				b = nb - 1
			}
			row[i] = uint16(b)
		}
		tr.bins[f] = row
		if nb > maxBins {
			maxBins = nb
		}
	}
	tr.hw = make([]float64, maxBins)
	tr.hy = make([]float64, maxBins)
	tr.hy2 = make([]float64, maxBins)
}

func (t *Tree) addLeaf(value float64) int {
	t.nodes = append(t.nodes, node{leaf: true, value: value})
	return len(t.nodes) - 1
}

func (tr *trainer) mean(samples []int) float64 {
	var sy, sw float64
	for _, s := range samples {
		sy += tr.y[s] * tr.w[s]
		sw += tr.w[s]
	}
	if sw == 0 {
		return 0
	}
	return sy / sw
}

// findBestSplit scans features for the bin boundary maximizing weighted
// variance reduction and stores it on the item.
func (tr *trainer) findBestSplit(it *growItem) {
	samples := it.samples
	if len(samples) < 2 {
		return
	}
	var totalW, totalY, totalY2 float64
	for _, s := range samples {
		w := tr.w[s]
		yv := tr.y[s]
		totalW += w
		totalY += w * yv
		totalY2 += w * yv * yv
	}
	if totalW < 2*tr.cfg.MinLeaf {
		return
	}
	parentSSE := totalY2 - totalY*totalY/totalW
	if parentSSE <= 1e-12 {
		return // pure node
	}

	features := make([]int, tr.nf)
	for i := range features {
		features[i] = i
	}
	if k := tr.cfg.FeatureSubset; k > 0 && k < tr.nf && tr.cfg.Rand != nil {
		tr.cfg.Rand.Shuffle(tr.nf, func(i, j int) { features[i], features[j] = features[j], features[i] })
		features = features[:k]
	}

	bestGain := 1e-12
	for _, f := range features {
		nb := tr.nBins[f]
		if nb < 2 {
			continue
		}
		hw, hy, hy2 := tr.hw[:nb], tr.hy[:nb], tr.hy2[:nb]
		for b := 0; b < nb; b++ {
			hw[b], hy[b], hy2[b] = 0, 0, 0
		}
		binRow := tr.bins[f]
		for _, s := range samples {
			b := binRow[s]
			w := tr.w[s]
			yv := tr.y[s]
			hw[b] += w
			hy[b] += w * yv
			hy2[b] += w * yv * yv
		}
		var lw, ly, ly2 float64
		for b := 0; b+1 < nb; b++ {
			lw += hw[b]
			ly += hy[b]
			ly2 += hy2[b]
			if lw < tr.cfg.MinLeaf {
				continue
			}
			rw := totalW - lw
			if rw < tr.cfg.MinLeaf {
				break
			}
			if lw == 0 || rw == 0 {
				continue
			}
			ry := totalY - ly
			ry2 := totalY2 - ly2
			sse := (ly2 - ly*ly/lw) + (ry2 - ry*ry/rw)
			if gain := parentSSE - sse; gain > bestGain {
				bestGain = gain
				it.gain = gain
				it.feature = f
				it.bin = b
				it.threshold = tr.cutpoints[f][b]
				it.ok = true
			}
		}
	}
}

// Predict returns the tree's output for a feature vector.
func (t *Tree) Predict(x []float64) float64 {
	i := 0
	for !t.nodes[i].leaf {
		n := t.nodes[i]
		if x[n.feature] <= n.threshold {
			i = n.left
		} else {
			i = n.right
		}
	}
	return t.nodes[i].value
}
