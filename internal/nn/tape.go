package nn

// Tape is an arena for the tensors of one computation graph.
// LocMatcher-style training builds and discards a fresh graph per sample;
// without a tape every op allocates a Tensor struct plus data (and later
// gradient) buffers that become garbage as soon as the optimizer step runs.
// A tape hands out recycled structs and buffers instead: after Backward has
// run and the caller has read everything it needs, Reset rewinds the arena,
// so the next sample's graph is cut from the same memory and allocates
// (almost) nothing.
//
// Usage: create leaf input tensors with NewLeaf and fill them.
// Every op whose inputs include a tape-resident tensor allocates its result
// from the same tape, so the arena propagates through the graph exactly like
// needGrad does. Trainable parameters stay heap-allocated and are never
// recycled — only graph intermediates live on the tape.
//
// A tape is NOT safe for concurrent use: one tape per goroutine (the
// data-parallel trainer gives each worker its own). All tensors, Data/Grad
// slices and Shape slices obtained from a tape are invalid after Reset;
// copy anything that must outlive the graph.
type Tape struct {
	// slabs are the arena's float64 chunks; buffers are cut from
	// slabs[slab][off:] in the order they are asked for, and Reset rewinds
	// to the start of the first. A graph that outgrows one chunk moves on
	// to the next (allocating it the first time), so after a tape has seen
	// its largest graph a pass allocates nothing.
	slabs [][]float64
	slab  int
	off   int
	// ts are the Tensor structs handed out so far, ts[:used] since the last
	// Reset.
	ts    []*Tensor
	used  int
	order []*Tensor // Backward's topological-order scratch
}

// tapeSlabLen is the length of a tape's chunks (a request larger than this
// gets a chunk of its own size): 512 KiB, a few LocMatcher graphs' worth.
const tapeSlabLen = 1 << 16

// NewTape returns an empty tape.
func NewTape() *Tape { return &Tape{} }

// alloc returns a float64 buffer of length n (and capacity n, so an append
// cannot run into its neighbour) with unspecified contents: for storage
// whose every element the caller writes before reading.
func (tp *Tape) alloc(n int) []float64 {
	for tp.slab < len(tp.slabs) {
		if s := tp.slabs[tp.slab]; tp.off+n <= len(s) {
			b := s[tp.off : tp.off+n : tp.off+n]
			tp.off += n
			return b
		}
		tp.slab++
		tp.off = 0
	}
	tp.slabs = append(tp.slabs, make([]float64, max(n, tapeSlabLen)))
	tp.off = n
	return tp.slabs[tp.slab][:n:n]
}

// zeros returns a zeroed float64 buffer of length n.
func (tp *Tape) zeros(n int) []float64 {
	b := tp.alloc(n)
	clear(b)
	return b
}

// tensor returns a zeroed Tensor struct bound to the tape.
func (tp *Tape) tensor() *Tensor {
	if tp.used == len(tp.ts) {
		tp.ts = append(tp.ts, &Tensor{})
	}
	t := tp.ts[tp.used]
	tp.used++
	t.tape = tp
	return t
}

// NewLeaf returns a zero-filled constant (non-differentiable) tensor
// allocated on the tape, for the caller to fill in place. Seeding a graph's
// inputs with NewLeaf is what routes all downstream op results through the
// arena.
func (tp *Tape) NewLeaf(shape ...int) *Tensor {
	t := tp.tensor()
	t.setShape(shape)
	t.Data = tp.zeros(numel(shape))
	return t
}

// Reset recycles every tensor and buffer handed out since the last Reset.
// The caller must be done reading all of them.
func (tp *Tape) Reset() {
	tp.slab, tp.off = 0, 0
	for _, t := range tp.ts[:tp.used] {
		*t = Tensor{}
	}
	tp.used = 0
}

// graphScratch returns a scratch buffer tied to t's graph, contents
// unspecified on a tape: arena storage when t lives on one, a plain
// allocation otherwise. Ops use it for forward/backward working memory
// (dropout masks, saved activations) that must live exactly as long as the
// graph, and write every element before reading it.
func graphScratch(t *Tensor, n int) []float64 {
	if t.tape != nil {
		return t.tape.alloc(n)
	}
	return make([]float64, n)
}
