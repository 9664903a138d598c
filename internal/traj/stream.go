package traj

import "dlinfma/internal/geo"

// StreamExtractor is the stay-point extractor, batch and streamed alike: it
// consumes one courier's GPS fixes one at a time, noise-filters them, and
// emits each stay point (Definition 4) at the moment it closes — when the
// courier finally leaves the D_max disc around the stay's anchor, or when
// the trip ends (Flush). ExtractStayPoints is a whole trip pushed through
// one extractor.
//
// The noise filter keeps a last-accepted anchor and rejects a fix that
// repeats the anchor's timestamp (closer than MinInterval) or implies a
// speed above MaxSpeed from it. A single spike therefore costs one point,
// while a genuine fast segment re-anchors: when a rejected fix is consistent
// with the one rejected before it, the anchor itself was the outlier and
// both rejected fixes are accepted. The filter is causal (each decision
// depends only on earlier fixes).
//
// The detector is the seek-forward algorithm of Li et al. (paper ref [7]):
// anchor at p_i, extend j while distance(p_i, p_j) <= DMax, and emit a stay
// point over p_i..p_{j-1} if its span reaches TMin; the scan resumes at p_j,
// so stay points never overlap. It only ever looks at fixes up to the first
// one that breaks the current anchor's disc, which is what lets it run one
// fix at a time.
//
// A StreamExtractor holds one open trip. Flush closes it (applying the
// detector's end-of-input rule) and resets the extractor for the courier's
// next trip. It is not safe for concurrent use; the serving engine keeps one
// per courier behind its ingest lock.
type StreamExtractor struct {
	nf NoiseFilterConfig
	sp StayPointConfig

	// Noise-filter state: the last accepted fix (the filter's anchor) and
	// the last rejected fix awaiting a consistent successor.
	started    bool
	last       GPSPoint
	pending    GPSPoint
	hasPending bool

	// Detector state: accepted fixes from the current anchor onward.
	// buf[head] is the anchor; brk is the head-relative index of the first
	// fix outside the anchor's D_max disc (-1 while the window is open).
	buf  []GPSPoint
	head int
	brk  int

	// emitted is the reusable return slice of Push/Flush.
	emitted []StayPoint

	// accepted counts noise-accepted fixes for the current trip (reset by
	// Flush); with the pushed count it gives the per-trip noise drop rate.
	accepted int
}

// NewStreamExtractor returns an extractor with the given noise-filter and
// stay-point thresholds. A non-positive MaxSpeed takes DefaultNoiseFilter's;
// a non-positive DMax or TMin takes DefaultStayPointConfig whole.
func NewStreamExtractor(nf NoiseFilterConfig, sp StayPointConfig) *StreamExtractor {
	if sp.DMax <= 0 || sp.TMin <= 0 {
		sp = DefaultStayPointConfig()
	}
	if nf.MaxSpeed <= 0 {
		nf.MaxSpeed = DefaultNoiseFilter().MaxSpeed
	}
	return &StreamExtractor{nf: nf, sp: sp, brk: -1}
}

// Push consumes the next fix and returns the stay points it closed (usually
// none; at most a handful when a re-anchored outlier run collapses). The
// returned slice is reused by the next Push or Flush call — callers must
// consume it before pushing again.
func (x *StreamExtractor) Push(p GPSPoint) []StayPoint {
	x.emitted = x.emitted[:0]
	// The noise filter: accept, re-anchor via the pending fix, or reject.
	// A speed test that divides by dt == 0 (possible when MinInterval <= 0)
	// reads +Inf or NaN and rejects.
	if !x.started {
		x.started = true
		x.last = p
		x.accept(p)
		return x.emitted
	}
	dt := p.T - x.last.T
	if dt < x.nf.MinInterval {
		return x.emitted
	}
	if geo.Dist(p.P, x.last.P)/dt <= x.nf.MaxSpeed {
		x.last = p
		x.hasPending = false
		x.accept(p)
		return x.emitted
	}
	// Outlier with respect to the anchor. If it is consistent with the
	// previous rejected fix, the anchor itself was the outlier: accept both.
	if x.hasPending {
		pdt := p.T - x.pending.T
		if pdt >= x.nf.MinInterval && geo.Dist(p.P, x.pending.P)/pdt <= x.nf.MaxSpeed {
			x.accept(x.pending)
			x.last = p
			x.hasPending = false
			x.accept(p)
			return x.emitted
		}
	}
	x.pending = p
	x.hasPending = true
	return x.emitted
}

// Flush ends the trip: it applies the detector's end-of-input rule (a still
// open window whose span reaches T_min emits even without a disc-breaking
// fix), returns any stay points that closed, and resets the extractor for
// the courier's next trip. The returned slice is reused by the next call.
func (x *StreamExtractor) Flush() []StayPoint {
	x.emitted = x.emitted[:0]
	x.drain(true)
	x.started = false
	x.hasPending = false
	x.buf = x.buf[:0]
	x.head = 0
	x.brk = -1
	x.accepted = 0
	return x.emitted
}

// Accepted reports how many fixes of the current open trip passed the noise
// filter (Flush resets it with the rest of the trip state). Callers that
// also count the fixes they pushed get the trip's noise drop rate for free.
func (x *StreamExtractor) Accepted() int { return x.accepted }

// accept feeds one noise-accepted fix to the incremental detector.
func (x *StreamExtractor) accept(p GPSPoint) {
	x.accepted++
	x.buf = append(x.buf, p)
	if n := len(x.buf) - x.head; x.brk == -1 && n >= 2 {
		if geo.Dist(x.buf[x.head].P, p.P) > x.sp.DMax {
			x.brk = n - 1
		}
	}
	x.drain(false)
}

// drain advances the detector as far as the fixes seen so far allow: while
// the current anchor's window is closed by a disc-breaking fix (or by end of
// input when final), emit a stay point or slide the anchor. With final unset
// it stops as soon as the window is open again — more fixes may still
// extend it.
func (x *StreamExtractor) drain(final bool) {
	for {
		n := len(x.buf) - x.head
		if n < 2 {
			// A lone trailing fix can never anchor a stay.
			break
		}
		var last int // head-relative index of the window's last member
		switch {
		case x.brk != -1:
			last = x.brk - 1
		case final:
			last = n - 1
		default:
			return // window still open; wait for more fixes
		}
		a := x.head
		if last > 0 && x.buf[a+last].T-x.buf[a].T >= x.sp.TMin {
			x.emit(a, a+last)
			if x.brk != -1 {
				x.head += x.brk // i = j: the breaker anchors the next scan
			} else {
				x.head += n // end of input consumed the whole window
			}
		} else {
			x.head++ // too short: slide the anchor forward one fix
		}
		x.recomputeBreak()
		x.compact()
	}
}

// emit appends the stay point over buf[lo..hi] (inclusive), its location the
// centroid of the members summed in index order.
func (x *StreamExtractor) emit(lo, hi int) {
	var sx, sy float64
	for k := lo; k <= hi; k++ {
		sx += x.buf[k].P.X
		sy += x.buf[k].P.Y
	}
	m := float64(hi - lo + 1)
	x.emitted = append(x.emitted, StayPoint{
		Loc:     geo.Point{X: sx / m, Y: sy / m},
		ArriveT: x.buf[lo].T,
		LeaveT:  x.buf[hi].T,
		NPoints: hi - lo + 1,
	})
}

// recomputeBreak rescans the buffer for the new anchor's first disc-breaking
// fix. The seek-forward scan stops at the first break, so only the first one
// matters even when later fixes re-enter the disc.
func (x *StreamExtractor) recomputeBreak() {
	x.brk = -1
	if len(x.buf)-x.head < 2 {
		return
	}
	anchor := x.buf[x.head].P
	for j := x.head + 1; j < len(x.buf); j++ {
		if geo.Dist(anchor, x.buf[j].P) > x.sp.DMax {
			x.brk = j - x.head
			return
		}
	}
}

// compact reclaims consumed buffer prefix once it dominates the slice, so a
// long-running stream does not pin every fix it ever accepted.
func (x *StreamExtractor) compact() {
	if x.head >= 64 && x.head*2 >= len(x.buf) {
		n := copy(x.buf, x.buf[x.head:])
		x.buf = x.buf[:n]
		x.head = 0
	}
}
