//go:build unix

package dlinfma

import "syscall"

// processCPU is the CPU time, user and system, this process has used, in
// nanoseconds. Unlike wall time it leaves out the time the machine spent
// running someone else, the bulk of a benchmark's spread on a shared box.
func processCPU() (int64, bool) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, false
	}
	return ru.Utime.Nano() + ru.Stime.Nano(), true
}
