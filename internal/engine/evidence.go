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

// evidence is what one shard has accumulated to infer from: every ingested
// trip, the address registry, ground truth, the backlog the served state
// does not cover yet, and the candidate pool. It has two owners. mu guards
// intake: trips enter one way, queue, whatever path brought them — a batch
// window's after the shard extracted their stay points outside mu, a
// streamed one as the engine's stream closes it — and wait in the open
// window until the engine cuts it. sealer owns the pool builder: cut hands
// the open window to a goroutine that clusters it while ingest goes on,
// and the shard's next cut waits for that seal, so at most one window is in
// flight and windows seal in cut order. mu is never held across
// clustering, and every mutator republishes counts as it unlocks — so
// Status, backpressure and the snapshot writer never wait for a window.
type evidence struct {
	mu   sync.Mutex
	name string
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
	// open is the window the next cut hands to the sealer: the stay points
	// of the trips queued since the last cut, in queue order.
	open []queuedTrip

	// sealer is held from the cut that hands it a window until that window
	// is sealed (it is unlocked by the sealing goroutine), and by view
	// across finalizing: it alone guards builder and sealed, the number of
	// trips the builder holds (the first ones queued, in queue order).
	sealer  sync.Mutex
	builder *core.IncrementalPoolBuilder
	sealed  int
}

// queuedTrip is one trip of the open window as the pool builder takes it.
type queuedTrip struct {
	courier model.CourierID
	stays   []traj.StayPoint
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
// adds its stay points to the open window. The pool builder takes ownership
// of stays at the cut.
func (ev *evidence) queue(tr model.Trip, stays []traj.StayPoint) {
	ev.mu.Lock()
	defer ev.unlock()
	ev.open = append(ev.open, queuedTrip{tr.Courier, stays})
	if ev.pending == 0 {
		ev.pendingSince = time.Now()
	}
	ev.pending++
	tr.Traj = nil
	ev.trips = append(ev.trips, tr)
	ingestTrips.Inc()
}

// cut ends the open window and hands it to the sealer: once the shard's
// previous window is sealed, a goroutine feeds the window's trips to the
// builder in queue order and seals them as one pool window. cut returns as
// that goroutine starts, without waiting for the clustering; settle and
// view wait for it. Nothing queued is a no-op, so the engine's cuts never
// produce empty pool windows.
func (ev *evidence) cut(ctx context.Context) {
	ev.mu.Lock()
	w := ev.open
	ev.open = nil
	ev.mu.Unlock()
	if len(w) == 0 {
		return
	}
	ev.sealer.Lock()
	ingestWindows.Inc()
	go func() {
		defer ev.sealer.Unlock()
		for _, q := range w {
			ev.builder.AppendTripStays(q.courier, q.stays)
		}
		// SealWindow's ctx carries the trace span only: a seal runs to the end.
		_ = ev.builder.SealWindow(ctx)
		ev.sealed += len(w)
	}()
}

// settle returns once every window cut so far is sealed.
func (ev *evidence) settle() {
	ev.sealer.Lock()
	ev.sealer.Unlock()
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

// view is the evidence as a re-inference reads it: the pool finalized over
// every window cut so far (it waits for the one in flight; trips in the
// open window are left out), the trips that pool covers and the addresses
// as capped slices of their append-only registries, a copy of the truth,
// and the trip count for served. Without sealed trips it fails with
// errNoTrips.
func (ev *evidence) view(ctx context.Context) (*model.Dataset, *core.Pool, int, error) {
	ev.sealer.Lock()
	n := ev.sealed
	if n == 0 {
		ev.sealer.Unlock()
		return nil, nil, 0, errNoTrips
	}
	pool := ev.builder.FinalizeCtx(ctx)
	ev.sealer.Unlock()
	ev.mu.Lock()
	defer ev.mu.Unlock()
	ds := &model.Dataset{
		Name:      ev.name,
		Trips:     ev.trips[:n:n],
		Addresses: ev.addrs[:len(ev.addrs):len(ev.addrs)],
		Truth:     maps.Clone(ev.truth),
	}
	return ds, pool, n, nil
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
