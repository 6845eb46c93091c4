//go:build unix

package main

import (
	"syscall"
	"time"
)

// processCPU returns the CPU time all threads of the process have run,
// user and system. Time the hypervisor gives to other tenants and time a
// CPU sits idle are not in it.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}
