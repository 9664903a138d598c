package engine

import (
	"errors"
	"time"

	"dlinfma/internal/deploy"
	"dlinfma/internal/obs"
)

// AutoReinferConfig bounds how stale the served state may grow before a
// re-inference is fired without an operator asking for one. Both thresholds
// read the engine's own status — PendingTrips (backlog size) and
// PendingAgeSeconds (how long the oldest un-served trip has waited) — so the
// monitor drives any topology, in-process or remote, the same way.
type AutoReinferConfig struct {
	// MaxPending fires once the pending-trip backlog reaches this size
	// (0 disables the size condition).
	MaxPending int
	// MaxAge fires once the oldest pending trip has waited this long
	// (0 disables the age condition).
	MaxAge time.Duration
	// Interval is the status polling cadence (0 = DefaultAutoReinferInterval).
	Interval time.Duration
}

// DefaultAutoReinferInterval is the monitor's polling cadence when the
// config leaves it zero. Status is a cheap in-memory read (one RPC per shard
// on a frontend), so seconds-scale polling costs nothing next to a retrain.
const DefaultAutoReinferInterval = 5 * time.Second

// enabled reports whether any tripping condition is configured.
func (c AutoReinferConfig) enabled() bool { return c.MaxPending > 0 || c.MaxAge > 0 }

// AutoReinfer is a background monitor that watches an engine's pending
// backlog and starts a re-inference when a threshold trips. Stop it before
// closing the engine.
type AutoReinfer struct {
	stop chan struct{}
	done chan struct{}
}

// StartAutoReinfer launches the monitor over e, or returns nil when cfg has
// no condition enabled (nil's Stop is a no-op, so callers wire it
// unconditionally). The monitor never stacks jobs: while a re-inference is
// running it just keeps watching, and a fire that loses the race to a
// concurrent manual POST /v1/reinfer counts as that job instead.
func StartAutoReinfer(e deploy.Engine, cfg AutoReinferConfig, log *obs.Logger) *AutoReinfer {
	if !cfg.enabled() {
		return nil
	}
	if cfg.Interval <= 0 {
		cfg.Interval = DefaultAutoReinferInterval
	}
	a := &AutoReinfer{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(a.done)
		t := time.NewTicker(cfg.Interval)
		defer t.Stop()
		for {
			select {
			case <-a.stop:
				return
			case <-t.C:
			}
			st := e.Status()
			if st.ReinferRunning || st.PendingTrips == 0 {
				continue
			}
			var reason string
			switch {
			case cfg.MaxPending > 0 && st.PendingTrips >= cfg.MaxPending:
				reason = "backlog"
				autoReinferBacklog.Inc()
			case cfg.MaxAge > 0 && st.PendingAgeSeconds >= cfg.MaxAge.Seconds():
				reason = "age"
				autoReinferAge.Inc()
			default:
				continue
			}
			log.Info("auto reinfer fired",
				"reason", reason, "pending", st.PendingTrips, "pending_age_s", st.PendingAgeSeconds)
			if _, err := e.StartReinfer(); err != nil && !errors.Is(err, deploy.ErrReinferRunning) {
				log.Warn("auto reinfer failed to start", "err", err)
			}
		}
	}()
	return a
}

// Stop halts the monitor and waits for its goroutine to exit. Any job the
// monitor already started keeps running; join it through the engine's own
// Close. Stop on a nil monitor is a no-op.
func (a *AutoReinfer) Stop() {
	if a == nil {
		return
	}
	close(a.stop)
	<-a.done
}
