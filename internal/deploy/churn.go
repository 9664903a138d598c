package deploy

import (
	"dlinfma/internal/deploy/api"
	"dlinfma/internal/geo"
)

// churnDistanceBounds are the upper edges, in meters, of the distance-moved
// histogram a hot-swap churn diff produces. Delivery-location moves under a
// meter or two are re-inference jitter; tens of meters are a different
// building; hundreds are the mis-annotation-scale corrections the paper is
// about. The final implicit bucket is +Inf.
var churnDistanceBounds = [...]float64{1, 2.5, 5, 10, 25, 50, 100, 250, 500, 1000, 2500}

// DiffFrozen computes the churn of swapping old out for new: how the served
// answers changed across one hot-swap. A swap that moves a large fraction of
// addresses is exactly the mis-annotation-discovery signal the system exists
// to produce — and the one an operator most needs to see when it happens
// unexpectedly. The report's counts, ratio, distances and low-confidence
// count are filled; the caller stamps its shard, time and kind. Either store
// may be nil (a cold boot has no outgoing store: everything counts as
// Added). lowConf, when > 0, also counts incoming answers below that
// confidence; onMove, when non-nil, is called with each moved distance in
// meters (the engine feeds its distance histogram through it). The diff
// walks the new table once, probing the old one for each answer — O(|new|)
// — and runs off the serving path, after the swap has already published.
func DiffFrozen(old, new *FrozenStore, lowConf float64, onMove func(meters float64)) api.SwapReport {
	c := api.SwapReport{Before: old.Len(), After: new.Len()}
	var movedDist [len(churnDistanceBounds) + 1]int64
	var sumMoved float64
	if new != nil {
		for i := range new.slots {
			na := &new.slots[i]
			if na.src == SourceNone {
				continue
			}
			if lowConf > 0 && na.src == SourceAddress && na.conf > 0 && float64(na.conf) < lowConf {
				c.LowConfidence++
			}
			oa := old.find(na.id)
			if oa == nil {
				c.Added++
				continue
			}
			if oa.loc == na.loc {
				c.Retained++
				continue
			}
			c.Moved++
			d := geo.Dist(oa.loc, na.loc)
			sumMoved += d
			if d > c.MaxMovedMeters {
				c.MaxMovedMeters = d
			}
			movedDist[churnBucket(d)]++
			if onMove != nil {
				onMove(d)
			}
		}
	}
	// Every old answer new still has is retained or moved.
	c.Dropped = int64(c.Before) - (c.Retained + c.Moved)
	if c.Moved > 0 {
		c.ChurnRatio = float64(c.Moved) / float64(c.Moved+c.Retained)
		c.MeanMovedMeters = sumMoved / float64(c.Moved)
		for i, n := range movedDist {
			if n == 0 {
				continue
			}
			b := api.SwapDistanceBucket{Count: n}
			if i < len(churnDistanceBounds) {
				b.LEMeters = churnDistanceBounds[i]
			} else {
				b.Inf = true
			}
			c.MovedDistance = append(c.MovedDistance, b)
		}
	}
	return c
}

// churnBucket maps a moved distance to its churnDistanceBounds slot.
func churnBucket(d float64) int {
	for i, b := range churnDistanceBounds {
		if d <= b {
			return i
		}
	}
	return len(churnDistanceBounds)
}
