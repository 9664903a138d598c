package core

import (
	"slices"

	"dlinfma/internal/geo"
	"dlinfma/internal/model"
)

// WindowPartition is one shard's slice of an ingest window: the addresses and
// truth it owns plus every trip that can carry candidate evidence for them.
type WindowPartition struct {
	Trips []model.Trip
	Addrs []model.AddressInfo
	Truth map[model.AddressID]geo.Point
}

// Empty reports whether the partition carries nothing to ingest.
func (wp WindowPartition) Empty() bool {
	return len(wp.Trips) == 0 && len(wp.Addrs) == 0 && len(wp.Truth) == 0
}

// PartitionWindow splits one ingest window across n shards. Addresses and
// ground truth follow addrShardOf. Each trip is replicated to every shard
// owning at least one of its waybill addresses, so per-address candidate
// retrieval on a shard sees the complete evidence even when the trajectory's
// stay points straddle routing-cell edges — the address key decides
// placement, never the individual point. A trip none of whose waybill
// addresses are known routes to tripShard. Trips keep their input order
// within each shard, which keeps downstream clustering deterministic.
func PartitionWindow(
	n int,
	trips []model.Trip,
	addrs []model.AddressInfo,
	truth map[model.AddressID]geo.Point,
	addrShardOf func(model.AddressID) (int, bool),
	tripShard func(model.Trip) int,
) []WindowPartition {
	parts := make([]WindowPartition, n)
	for _, a := range addrs {
		if s, ok := addrShardOf(a.ID); ok && s >= 0 && s < n {
			parts[s].Addrs = append(parts[s].Addrs, a)
		}
	}
	for id, p := range truth {
		s, ok := addrShardOf(id)
		if !ok || s < 0 || s >= n {
			continue
		}
		if parts[s].Truth == nil {
			parts[s].Truth = make(map[model.AddressID]geo.Point)
		}
		parts[s].Truth[id] = p
	}
	var shards []int
	for _, tr := range trips {
		shards = AppendTripShards(shards[:0], n, &tr, addrShardOf, tripShard)
		for _, s := range shards {
			parts[s].Trips = append(parts[s].Trips, tr)
		}
	}
	return parts
}

// AppendTripShards appends to dst the shards among n that trip tr belongs
// to, the rule PartitionWindow replicates trips by and the engine delivers
// every trip by: each shard owning one of its waybill addresses, once, in
// waybill order, or tripShard's when none does. With one shard it is shard 0
// and neither callback is consulted.
func AppendTripShards(dst []int, n int, tr *model.Trip, addrShardOf func(model.AddressID) (int, bool), tripShard func(model.Trip) int) []int {
	if n == 1 {
		return append(dst, 0)
	}
	start := len(dst)
	for _, w := range tr.Waybills {
		if s, ok := addrShardOf(w.Addr); ok && s >= 0 && s < n && !slices.Contains(dst[start:], s) {
			dst = append(dst, s)
		}
	}
	if len(dst) == start {
		if s := tripShard(*tr); s >= 0 && s < n {
			dst = append(dst, s)
		}
	}
	return dst
}

// PartitionDataset splits a whole dataset the same way PartitionWindow splits
// one window, returning one self-contained dataset per shard (used by the
// sharded-vs-global equivalence check to build per-shard reference runs).
func PartitionDataset(
	ds *model.Dataset,
	n int,
	addrShard func(model.AddressInfo) int,
	tripShard func(model.Trip) int,
) []*model.Dataset {
	shardOf := make(map[model.AddressID]int, len(ds.Addresses))
	for _, a := range ds.Addresses {
		shardOf[a.ID] = addrShard(a)
	}
	lookup := func(id model.AddressID) (int, bool) {
		s, ok := shardOf[id]
		return s, ok
	}
	parts := PartitionWindow(n, ds.Trips, ds.Addresses, ds.Truth, lookup, tripShard)
	out := make([]*model.Dataset, n)
	for i, p := range parts {
		out[i] = &model.Dataset{
			Name:      ds.Name,
			Trips:     p.Trips,
			Addresses: p.Addrs,
			Truth:     p.Truth,
		}
		if out[i].Truth == nil {
			out[i].Truth = map[model.AddressID]geo.Point{}
		}
	}
	return out
}
