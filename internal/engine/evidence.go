package engine

import (
	"context"
	"maps"
	"sync"
	"sync/atomic"
	"time"

	"dlinfma/internal/core"
	"dlinfma/internal/geo"
	"dlinfma/internal/model"
	"dlinfma/internal/traj"
)

// evidence is what one shard has accumulated to infer from: the pool
// builder, every ingested trip, the address registry, ground truth, and the
// backlog the served state does not cover yet. Trips enter one way, queue,
// whatever path brought them: a batch window's after the shard extracted
// their stay points outside mu, a streamed one as the engine's stream closes
// it; only the engine's seal cuts a pool window. Its methods are the only
// code that takes mu or writes a field, and every mutator republishes counts
// as it unlocks — so Status, backpressure and the snapshot writer never wait
// for a window's clustering, which seal holds mu across.
type evidence struct {
	mu      sync.Mutex
	name    string
	builder *core.IncrementalPoolBuilder
	// trips holds every ingested trip without its Traj: the builder has the
	// stay points, and re-inference reads only courier, times and waybills.
	trips    []model.Trip
	addrs    []model.AddressInfo
	addrSeen map[model.AddressID]bool
	truth    map[model.AddressID]geo.Point
	// pending counts trips the served state does not cover; pendingSince is
	// when that backlog started (zero while empty), the age auto-reinfer watches.
	pending      int
	pendingSince time.Time
	counts       atomic.Pointer[ingestCounts]
}

// ingestCounts is the evidence as last published, immutable once stored.
// addrs is the address registry capped at its length: later registrations
// append past it or into a new array, never into it.
type ingestCounts struct {
	name           string
	addrs          []model.AddressInfo
	trips, pending int
	pendingSince   time.Time
}

func newEvidence(cfg core.Config) *evidence {
	ev := &evidence{
		builder:  core.NewIncrementalPoolBuilder(cfg),
		addrSeen: make(map[model.AddressID]bool),
		truth:    make(map[model.AddressID]geo.Point),
	}
	ev.mu.Lock()
	ev.unlock() // readers never find counts unset
	return ev
}

// unlock publishes counts for the evidence as it now is and releases mu.
func (ev *evidence) unlock() {
	ev.counts.Store(&ingestCounts{name: ev.name, addrs: ev.addrs[:len(ev.addrs):len(ev.addrs)],
		trips: len(ev.trips), pending: ev.pending, pendingSince: ev.pendingSince})
	ev.mu.Unlock()
}

// addAddrs registers a window's new addresses and its ground truth,
// reporting how many addresses were new.
func (ev *evidence) addAddrs(addrs []model.AddressInfo, truth map[model.AddressID]geo.Point) int {
	ev.mu.Lock()
	defer ev.unlock()
	added := ev.addAddrsLocked(addrs)
	ingestAddrs.Add(int64(added))
	maps.Copy(ev.truth, truth)
	return added
}

// queue is the one trip intake: it records tr, without its fixes, and
// queues its stay points for the engine's next seal. The builder takes
// ownership of stays.
func (ev *evidence) queue(tr model.Trip, stays []traj.StayPoint) {
	ev.mu.Lock()
	defer ev.unlock()
	ev.builder.AppendTripStays(tr.Courier, stays)
	if ev.pending == 0 {
		ev.pendingSince = time.Now()
	}
	ev.pending++
	tr.Traj = nil
	ev.trips = append(ev.trips, tr)
	ingestTrips.Inc()
}

// seal clusters the queued trips into the pool as one window. Nothing
// queued is a no-op, so the engine's cuts never produce empty pool windows.
func (ev *evidence) seal(ctx context.Context) {
	ev.mu.Lock()
	defer ev.unlock()
	if ev.builder.PendingTrips() == 0 {
		return
	}
	// SealWindow's ctx carries the trace span only: a seal runs to the end.
	_ = ev.builder.SealWindow(ctx)
	ingestWindows.Inc()
}

// register seeds the evidence from a restored snapshot: its name, unless one
// is set, and its addresses. With nothing registered yet the decoded slice,
// which nobody else holds, becomes the registry instead of being copied into
// one; registering it into itself compacts it in place should the document
// name an address twice (first wins): writes never pass the read position.
func (ev *evidence) register(name string, addrs []model.AddressInfo) {
	ev.mu.Lock()
	defer ev.unlock()
	if ev.name == "" {
		ev.name = name
	}
	if len(ev.addrs) == 0 && len(addrs) > 0 {
		ev.addrSeen = make(map[model.AddressID]bool, len(addrs))
		ev.addrs = addrs[:0]
	}
	ev.addAddrsLocked(addrs)
}

func (ev *evidence) setName(name string) {
	ev.mu.Lock()
	defer ev.unlock()
	ev.name = name
}

// served restarts the backlog after a swap that covered the first n trips.
// Trips that raced the retrain arrived somewhere during it; restarting their
// age at the swap slightly underestimates, which only delays the age-based
// auto-reinfer trigger by at most one training run.
func (ev *evidence) served(n int) {
	ev.mu.Lock()
	defer ev.unlock()
	ev.pending, ev.pendingSince = len(ev.trips)-n, time.Time{}
	if ev.pending > 0 {
		ev.pendingSince = time.Now()
	}
}

// view is the evidence as a re-inference reads it: the sealed trips (queued
// ones awaiting the engine's seal are the tail of trips, left out) and the
// addresses as capped slices of their append-only registries, a copy of the
// truth, the pool finalized over exactly those trips, and the trip count for
// served. Without sealed trips it fails with errNoTrips.
func (ev *evidence) view(ctx context.Context) (*model.Dataset, *core.Pool, int, error) {
	ev.mu.Lock()
	defer ev.mu.Unlock()
	n := len(ev.trips) - ev.builder.PendingTrips()
	if n == 0 {
		return nil, nil, 0, errNoTrips
	}
	ds := &model.Dataset{
		Name:      ev.name,
		Trips:     ev.trips[:n:n],
		Addresses: ev.addrs[:len(ev.addrs):len(ev.addrs)],
		Truth:     maps.Clone(ev.truth),
	}
	return ds, ev.builder.FinalizeCtx(ctx), n, nil
}

// addAddrsLocked registers the addresses not seen before and reports how
// many were new. Callers hold mu.
func (ev *evidence) addAddrsLocked(addrs []model.AddressInfo) int {
	added := 0
	for _, a := range addrs {
		if !ev.addrSeen[a.ID] {
			ev.addrSeen[a.ID] = true
			ev.addrs = append(ev.addrs, a)
			added++
		}
	}
	return added
}
