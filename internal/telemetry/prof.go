package telemetry

import (
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"syscall"
)

// StartProfiles starts CPU profiling to cpuPath and schedules a heap
// profile to memPath; either path may be empty to skip that profile. The
// returned stop function finalizes both (it must run even on error paths,
// so callers defer it from a function that returns errors rather than
// calling log.Fatal past it) and is never nil.
func StartProfiles(cpuPath, memPath string) (stop func() error, err error) {
	var cpuFile *os.File
	if cpuPath != "" {
		cpuFile, err = os.Create(cpuPath)
		if err != nil {
			return func() error { return nil }, err
		}
		if err := pprof.StartCPUProfile(cpuFile); err != nil {
			cpuFile.Close()
			return func() error { return nil }, err
		}
	}
	return func() error {
		var firstErr error
		if cpuFile != nil {
			pprof.StopCPUProfile()
			if err := cpuFile.Close(); firstErr == nil {
				firstErr = err
			}
		}
		if memPath != "" {
			f, err := os.Create(memPath)
			if err != nil {
				if firstErr == nil {
					firstErr = err
				}
				return firstErr
			}
			runtime.GC() // flush recently freed objects so the profile reflects live data
			if err := pprof.WriteHeapProfile(f); firstErr == nil {
				firstErr = err
			}
			if err := f.Close(); firstErr == nil {
				firstErr = err
			}
		}
		if firstErr != nil {
			return fmt.Errorf("telemetry: finalizing profiles: %w", firstErr)
		}
		return nil
	}, nil
}

// CPUSeconds returns the process's cumulative user and system CPU time in
// seconds, from getrusage(RUSAGE_SELF), or 0 if that call fails. The
// runtime/metrics CPU classes are no substitute: the runtime refreshes
// them only when a GC cycle ends, so a span between two reads would
// measure the CPU between the GCs nearest to its ends.
func CPUSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Utime.Nano()+ru.Stime.Nano()) / 1e9
}
