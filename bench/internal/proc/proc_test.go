package proc

import (
	"context"
	"os"
	"strconv"
	"testing"
	"time"

	"dlinfma/internal/deploy/api"
)

func TestSelfCPUAdvances(t *testing.T) {
	before, err := SelfCPU()
	if err != nil {
		t.Fatal(err)
	}
	for start := time.Now(); time.Since(start) < 60*time.Millisecond; {
	}
	after, err := SelfCPU()
	if err != nil {
		t.Fatal(err)
	}
	if d := after - before; d < 30*time.Millisecond || d > time.Second {
		t.Errorf("60 ms of spinning counted as %v of CPU", d)
	}
}

// TestChildLifecycle: a child that never serves is reported as exited, not
// waited for, and every child is gone after KillAll.
func TestChildLifecycle(t *testing.T) {
	log := t.TempDir() + "/log"
	quick, err := Start("/bin/sh", []string{"-c", "exit 3 #"}, log)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if _, err := quick.WaitReady(ctx, func(api.EngineStatus) bool { return true }); err == nil || ctx.Err() != nil {
		t.Errorf("WaitReady on an exited child: %v", err)
	}
	quick.Kill()

	slow, err := Start("/bin/sh", []string{"-c", "sleep 60 #"}, log)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := slow.PeakRSSMB(); err != nil {
		t.Error(err)
	}
	pid := slow.Pid()
	KillAll()
	if _, err := os.Stat("/proc/" + strconv.Itoa(pid)); err == nil {
		t.Errorf("child %d still there after KillAll", pid)
	}
}
