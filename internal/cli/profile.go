package cli

import (
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"runtime/trace"
)

// startProfiles enables the stdlib profilers selected by the non-empty
// paths — a CPU profile, a heap profile (written at stop) and an
// execution trace — and returns a stop function that flushes and closes
// them. Flags.Start wires -cpuprofile/-memprofile/-trace here.
func startProfiles(cpuPath, memPath, tracePath string) (stop func() error, err error) {
	var cpuF, traceF *os.File
	cleanup := func() {
		if cpuF != nil {
			pprof.StopCPUProfile()
			cpuF.Close()
		}
		if traceF != nil {
			trace.Stop()
			traceF.Close()
		}
	}
	if cpuPath != "" {
		cpuF, err = os.Create(cpuPath)
		if err != nil {
			return nil, fmt.Errorf("cli: cpu profile: %w", err)
		}
		if err := pprof.StartCPUProfile(cpuF); err != nil {
			cpuF.Close()
			return nil, fmt.Errorf("cli: cpu profile: %w", err)
		}
	}
	if tracePath != "" {
		traceF, err = os.Create(tracePath)
		if err != nil {
			cleanup()
			return nil, fmt.Errorf("cli: trace: %w", err)
		}
		if err := trace.Start(traceF); err != nil {
			traceF.Close()
			traceF = nil
			cleanup()
			return nil, fmt.Errorf("cli: trace: %w", err)
		}
	}
	return func() error {
		var firstErr error
		if cpuF != nil {
			pprof.StopCPUProfile()
			if err := cpuF.Close(); err != nil && firstErr == nil {
				firstErr = err
			}
		}
		if traceF != nil {
			trace.Stop()
			if err := traceF.Close(); err != nil && firstErr == nil {
				firstErr = err
			}
		}
		if memPath != "" {
			f, err := os.Create(memPath)
			if err != nil {
				if firstErr == nil {
					firstErr = err
				}
			} else {
				runtime.GC() // materialize up-to-date heap statistics
				if err := pprof.WriteHeapProfile(f); err != nil && firstErr == nil {
					firstErr = err
				}
				if err := f.Close(); err != nil && firstErr == nil {
					firstErr = err
				}
			}
		}
		return firstErr
	}, nil
}
