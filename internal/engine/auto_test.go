package engine_test

import (
	"context"
	"sync"
	"testing"
	"time"

	"dlinfma/internal/deploy"
	"dlinfma/internal/engine"
	"dlinfma/internal/synth"
)

// autoStub is a deploy.Engine whose status the test scripts. The monitor
// calls only Status and StartReinfer; every other method is the nil
// embedded interface's.
type autoStub struct {
	deploy.Engine
	mu     sync.Mutex
	status deploy.EngineStatus
	starts int
}

func (s *autoStub) setStatus(st deploy.EngineStatus) {
	s.mu.Lock()
	s.status = st
	s.mu.Unlock()
}

func (s *autoStub) startCount() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.starts
}

func (s *autoStub) StartReinfer() (deploy.JobStatus, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.starts++
	// Once fired, the stub reports the job as running so the monitor must
	// not stack another start on the next ticks.
	s.status.ReinferRunning = true
	return deploy.JobStatus{ID: s.starts, State: deploy.JobRunning}, nil
}

func (s *autoStub) Status() deploy.EngineStatus {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.status
}

func waitStarts(t *testing.T, s *autoStub, want int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if s.startCount() == want {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("auto reinfer fired %d times, want %d", s.startCount(), want)
}

func TestAutoReinferBacklogTrigger(t *testing.T) {
	s := &autoStub{}
	a := engine.StartAutoReinfer(s, engine.AutoReinferConfig{MaxPending: 10, Interval: time.Millisecond}, nil)
	defer a.Stop()

	// Below threshold: no fire.
	s.setStatus(deploy.EngineStatus{PendingTrips: 9})
	time.Sleep(20 * time.Millisecond)
	if got := s.startCount(); got != 0 {
		t.Fatalf("fired %d times below threshold", got)
	}

	s.setStatus(deploy.EngineStatus{PendingTrips: 10})
	waitStarts(t, s, 1)

	// While the job runs the monitor keeps watching without stacking.
	time.Sleep(20 * time.Millisecond)
	if got := s.startCount(); got != 1 {
		t.Fatalf("stacked %d starts while a job was running", got)
	}

	// Job done, backlog drained: still quiet.
	s.setStatus(deploy.EngineStatus{PendingTrips: 0})
	time.Sleep(20 * time.Millisecond)
	if got := s.startCount(); got != 1 {
		t.Fatalf("fired %d times with an empty backlog", got)
	}

	// Backlog crosses again: second fire.
	s.setStatus(deploy.EngineStatus{PendingTrips: 25})
	waitStarts(t, s, 2)
}

func TestAutoReinferAgeTrigger(t *testing.T) {
	s := &autoStub{}
	a := engine.StartAutoReinfer(s, engine.AutoReinferConfig{MaxAge: 10 * time.Second, Interval: time.Millisecond}, nil)
	defer a.Stop()

	// Young backlog: no fire regardless of size (only the age condition is
	// configured).
	s.setStatus(deploy.EngineStatus{PendingTrips: 1000, PendingAgeSeconds: 9})
	time.Sleep(20 * time.Millisecond)
	if got := s.startCount(); got != 0 {
		t.Fatalf("fired %d times below the age threshold", got)
	}

	s.setStatus(deploy.EngineStatus{PendingTrips: 1, PendingAgeSeconds: 10.5})
	waitStarts(t, s, 1)
}

func TestAutoReinferDisabled(t *testing.T) {
	if a := engine.StartAutoReinfer(&autoStub{}, engine.AutoReinferConfig{}, nil); a != nil {
		t.Fatal("monitor started with no condition configured")
	}
	// Stop on the nil monitor must be safe: callers wire it unconditionally.
	var a *engine.AutoReinfer
	a.Stop()
}

func TestPendingAgeSurfacesInStatus(t *testing.T) {
	e := engine.New(quickConfig())
	defer e.Close()
	ds, _, err := synth.Generate(synth.Tiny())
	if err != nil {
		t.Fatal(err)
	}
	if err := e.IngestDataset(context.Background(), ds); err != nil {
		t.Fatal(err)
	}
	st := e.Status()
	if st.PendingTrips == 0 {
		t.Fatal("ingested trips did not pend")
	}
	if st.PendingAgeSeconds <= 0 {
		t.Fatalf("pending backlog reports age %v, want > 0", st.PendingAgeSeconds)
	}
	if st.Trips != len(ds.Trips) {
		t.Fatalf("status trips %d, want %d", st.Trips, len(ds.Trips))
	}
	if err := e.Reinfer(context.Background()); err != nil {
		t.Fatal(err)
	}
	st = e.Status()
	if st.PendingTrips != 0 || st.PendingAgeSeconds != 0 {
		t.Fatalf("after reinfer: pending=%d age=%v, want both zero", st.PendingTrips, st.PendingAgeSeconds)
	}
}
