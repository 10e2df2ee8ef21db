// Package profiling wires the standard pprof file profiles into the
// command line (-cpuprofile / -memprofile on policyscope repro and
// policyscope sweep), so performance work profiles the real command
// under its real workloads instead of ad-hoc benchmark harnesses.
package profiling

import (
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
)

// Start begins CPU profiling into cpuPath (when non-empty) and arms a
// heap snapshot into memPath (when non-empty). The returned stop
// function flushes both and is safe to call multiple times; callers
// must invoke it on every exit path (including error exits) or the
// profiles are truncated.
func Start(cpuPath, memPath string) (stop func(), err error) {
	var cpuFile *os.File
	if cpuPath != "" {
		cpuFile, err = os.Create(cpuPath)
		if err != nil {
			return nil, fmt.Errorf("profiling: %w", err)
		}
		if err := pprof.StartCPUProfile(cpuFile); err != nil {
			cpuFile.Close()
			return nil, fmt.Errorf("profiling: %w", err)
		}
	}
	done := false
	return func() {
		if done {
			return
		}
		done = true
		if cpuFile != nil {
			pprof.StopCPUProfile()
			if err := cpuFile.Close(); err != nil {
				fmt.Fprintf(os.Stderr, "profiling: closing cpu profile: %v\n", err)
			}
		}
		if memPath != "" {
			f, err := os.Create(memPath)
			if err != nil {
				fmt.Fprintf(os.Stderr, "profiling: %v\n", err)
				return
			}
			runtime.GC() // materialize up-to-date heap stats
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintf(os.Stderr, "profiling: writing heap profile: %v\n", err)
			}
			f.Close()
		}
	}, nil
}
