package deploy

import (
	"context"

	"dlinfma/internal/geo"
	"dlinfma/internal/model"
)

// BatchAnswer is one per-key outcome of a bulk query: the located point and
// the store level that answered, or SourceNone for an unknown key. It is a
// plain value so batch paths can fill caller-provided slices without
// allocating per key.
type BatchAnswer struct {
	Loc geo.Point
	Src Source
}

// BatchQuerier is the bulk read path of an engine. QueryBatch answers
// addrs[i] into out[i] (out is grown from the caller's slice so hot paths can
// recycle it, reusing its backing array when it fits), preserving input
// order. Implementations may fan out across shards in parallel; the only
// error is ctx's, returned when the caller gave up mid-batch.
type BatchQuerier interface {
	QueryBatch(ctx context.Context, addrs []model.AddressID, out []BatchAnswer) ([]BatchAnswer, error)
}

// GrowAnswers returns out resized to n entries, reallocating only when the
// capacity is short — the helper batch implementations use to recycle their
// result slices.
func GrowAnswers(out []BatchAnswer, n int) []BatchAnswer {
	if cap(out) < n {
		return make([]BatchAnswer, n)
	}
	return out[:n]
}
