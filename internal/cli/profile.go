package cli

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"runtime/trace"
)

// Profiler wires the standard Go profiling trio (-cpuprofile, -memprofile,
// -trace) into a flag set and manages their lifecycle. pqbench and pqd
// share it so profiles are taken identically everywhere:
//
//	prof := cli.NewProfiler(flag.CommandLine)
//	flag.Parse()
//	stop, err := prof.Start()
//	if err != nil { ... }
//	defer stop()
//
// Start begins CPU profiling and execution tracing immediately; stop flushes
// them and writes the heap profile last, so the memory profile reflects the
// program's state after the benchmark ran (a forced GC precedes the heap
// write so the profile shows live objects, not garbage).
type Profiler struct {
	cpuPath   string
	memPath   string
	tracePath string
}

// NewProfiler registers -cpuprofile, -memprofile and -trace on fs and
// returns the profiler that will honor them after fs is parsed.
func NewProfiler(fs *flag.FlagSet) *Profiler {
	p := &Profiler{}
	fs.StringVar(&p.cpuPath, "cpuprofile", "", "write a CPU profile to `file` (go tool pprof)")
	fs.StringVar(&p.memPath, "memprofile", "", "write a heap profile to `file` at exit (go tool pprof)")
	fs.StringVar(&p.tracePath, "trace", "", "write an execution trace to `file` (go tool trace)")
	return p
}

// Start begins the requested profiles. The returned stop function is safe to
// call exactly once (typically via defer) and must run before the process
// exits or the profile files will be truncated or empty.
func (p *Profiler) Start() (stop func(), err error) {
	var cpuFile, traceFile *os.File
	cleanup := func() {
		if cpuFile != nil {
			pprof.StopCPUProfile()
			cpuFile.Close()
		}
		if traceFile != nil {
			trace.Stop()
			traceFile.Close()
		}
	}
	if p.cpuPath != "" {
		cpuFile, err = os.Create(p.cpuPath)
		if err != nil {
			return nil, fmt.Errorf("cpuprofile: %w", err)
		}
		if err := pprof.StartCPUProfile(cpuFile); err != nil {
			cpuFile.Close()
			cpuFile = nil
			return nil, fmt.Errorf("cpuprofile: %w", err)
		}
	}
	if p.tracePath != "" {
		traceFile, err = os.Create(p.tracePath)
		if err != nil {
			cleanup()
			return nil, fmt.Errorf("trace: %w", err)
		}
		if err := trace.Start(traceFile); err != nil {
			traceFile.Close()
			traceFile = nil
			cleanup()
			return nil, fmt.Errorf("trace: %w", err)
		}
	}
	return func() {
		cleanup()
		if p.memPath != "" {
			f, err := os.Create(p.memPath)
			if err != nil {
				fmt.Fprintf(os.Stderr, "memprofile: %v\n", err)
				return
			}
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintf(os.Stderr, "memprofile: %v\n", err)
			}
			f.Close()
		}
	}, nil
}
