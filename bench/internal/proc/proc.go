// Package proc runs the server under test as a child process: free-port
// selection, launch, readiness polling against GET /v1/healthz, CPU and
// memory read from /proc, and teardown on every exit path.
package proc

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"dlinfma/internal/deploy/api"
)

// clockTick is the kernel's USER_HZ, which Linux fixes at 100 on every
// architecture Go supports; /proc/<pid>/stat counts CPU time in it.
const clockTick = 10 * time.Millisecond

// FreeAddr returns a loopback address no one listens on right now.
func FreeAddr() (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	defer l.Close()
	return l.Addr().String(), nil
}

// Child is one running server process.
type Child struct {
	Addr    string
	Started time.Time
	cmd     *exec.Cmd
	log     *os.File
	exited  chan struct{} // closed once the process has been reaped
	once    sync.Once
}

var (
	liveMu sync.Mutex
	live   = map[*Child]struct{}{}
)

// Start launches bin with args plus "-listen <free address>", appending its
// output to logPath. The child is killed with the harness (Pdeathsig) even
// when the harness itself dies without running its deferred calls.
func Start(bin string, args []string, logPath string) (*Child, error) {
	addr, err := FreeAddr()
	if err != nil {
		return nil, err
	}
	logf, err := os.OpenFile(logPath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(bin, append(args, "-listen", addr)...)
	cmd.Stdout, cmd.Stderr = logf, logf
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	c := &Child{Addr: addr, cmd: cmd, log: logf, exited: make(chan struct{})}
	c.Started = time.Now()
	if err := cmd.Start(); err != nil {
		logf.Close()
		return nil, fmt.Errorf("proc: start %s: %w", bin, err)
	}
	go func() {
		_ = cmd.Wait() // the exit status of a signalled child says nothing
		close(c.exited)
	}()
	liveMu.Lock()
	live[c] = struct{}{}
	liveMu.Unlock()
	return c, nil
}

// Pid returns the child's process id.
func (c *Child) Pid() int { return c.cmd.Process.Pid }

// statusClient polls /v1/healthz; one attempt is bounded so that a server
// still binding its port is asked again rather than waited on.
var statusClient = &http.Client{Timeout: 2 * time.Second}

// Status fetches /v1/healthz. The status code is not an error: an empty
// engine answers 503 with a valid body.
func (c *Child) Status() (api.EngineStatus, error) {
	var st api.EngineStatus
	resp, err := statusClient.Get("http://" + c.Addr + "/v1/healthz")
	if err != nil {
		return st, err
	}
	defer resp.Body.Close()
	err = json.NewDecoder(resp.Body).Decode(&st)
	return st, err
}

// WaitReady polls /v1/healthz until ok accepts the status, and returns the
// time from launch to that answer. It fails when the child exits first or
// ctx ends.
func (c *Child) WaitReady(ctx context.Context, ok func(api.EngineStatus) bool) (time.Duration, error) {
	defer statusClient.CloseIdleConnections()
	for {
		if st, err := c.Status(); err == nil && ok(st) {
			return time.Since(c.Started), nil
		}
		select {
		case <-c.exited:
			return 0, errors.New("proc: server exited before it was ready")
		case <-ctx.Done():
			return 0, fmt.Errorf("proc: server not ready: %w", ctx.Err())
		case <-time.After(2 * time.Millisecond):
		}
	}
}

// CPU returns the child's user+system CPU time so far.
func (c *Child) CPU() (time.Duration, error) { return cpuOf(strconv.Itoa(c.Pid())) }

// SelfCPU returns the harness's own user+system CPU time so far.
func SelfCPU() (time.Duration, error) { return cpuOf("self") }

func cpuOf(pid string) (time.Duration, error) {
	b, err := os.ReadFile("/proc/" + pid + "/stat")
	if err != nil {
		return 0, err
	}
	// The command name (field 2) may hold spaces; fields are counted from
	// the closing parenthesis. utime and stime are fields 14 and 15.
	i := bytes.LastIndexByte(b, ')')
	f := strings.Fields(string(b[i+1:]))
	if i < 0 || len(f) < 13 {
		return 0, fmt.Errorf("proc: malformed /proc/%s/stat", pid)
	}
	ut, err1 := strconv.ParseInt(f[11], 10, 64)
	st, err2 := strconv.ParseInt(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("proc: malformed /proc/%s/stat", pid)
	}
	return time.Duration(ut+st) * clockTick, nil
}

// PeakRSSMB returns the child's peak resident set size (VmHWM) in MB.
func (c *Child) PeakRSSMB() (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", c.Pid()))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			return kb / 1024, err
		}
	}
	return 0, errors.New("proc: no VmHWM in status")
}

// Kill ends the child with SIGKILL and waits for it. Safe to call twice.
func (c *Child) Kill() { c.stop(syscall.SIGKILL, 0) }

// Term asks the child to exit with SIGTERM, waits up to grace for it, then
// kills it.
func (c *Child) Term(grace time.Duration) { c.stop(syscall.SIGTERM, grace) }

func (c *Child) stop(sig syscall.Signal, grace time.Duration) {
	c.once.Do(func() {
		_ = c.cmd.Process.Signal(sig)
		if grace > 0 {
			select {
			case <-c.exited:
			case <-time.After(grace):
				_ = c.cmd.Process.Kill()
			}
		}
		<-c.exited
		c.log.Close()
		liveMu.Lock()
		delete(live, c)
		liveMu.Unlock()
	})
}

// KillAll kills every child still running; main calls it on every exit path.
func KillAll() {
	liveMu.Lock()
	cs := make([]*Child, 0, len(live))
	for c := range live {
		cs = append(cs, c)
	}
	liveMu.Unlock()
	for _, c := range cs {
		c.Kill()
	}
}
