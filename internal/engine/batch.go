package engine

import (
	"sync"

	"dlinfma/internal/deploy"
	"dlinfma/internal/model"
)

// scatter is the recycled grouping scratch of one multi-shard Engine.QueryBatch
// call: per-shard index lists plus a per-shard error slot, pooled so the
// steady-state batch path reuses its backing arrays instead of reallocating
// them per request.
type scatter struct {
	idx  [][]int32
	errs []error
}

var scatterPool = sync.Pool{New: func() any { return new(scatter) }}

// group files each key's position under its owning shard. Unrouted keys are
// answered SourceNone in place (and counted) so the gather step can skip
// them. The returned per-shard lists alias the scratch's backing arrays —
// valid until release.
func (sc *scatter) group(nShards int, rt map[model.AddressID]int32, addrs []model.AddressID, out []deploy.BatchAnswer) [][]int32 {
	if cap(sc.idx) < nShards {
		sc.idx = make([][]int32, nShards)
		sc.errs = make([]error, nShards)
	}
	sc.idx = sc.idx[:nShards]
	sc.errs = sc.errs[:nShards]
	for i := range sc.idx {
		sc.idx[i] = sc.idx[i][:0]
		sc.errs[i] = nil
	}
	var unrouted int64
	for i, addr := range addrs {
		sh, ok := rt[addr]
		if !ok {
			out[i] = deploy.BatchAnswer{Src: deploy.SourceNone}
			unrouted++
			continue
		}
		sc.idx[sh] = append(sc.idx[sh], int32(i))
	}
	if unrouted > 0 {
		shardUnroutedQueries.Add(unrouted)
	}
	return sc.idx
}

// release returns the scratch to the pool. The caller must be done with the
// slices group returned.
func (sc *scatter) release() { scatterPool.Put(sc) }
