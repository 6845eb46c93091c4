//go:build !unix

package main

import "time"

// processCPU is not measured off Unix; capacity_per_cpu then reads as not
// finite and the run stops with an error.
func processCPU() time.Duration { return 0 }
