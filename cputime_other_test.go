//go:build !unix

package dlinfma

// processCPU reports no CPU time where getrusage(2) does not exist.
func processCPU() (int64, bool) { return 0, false }
