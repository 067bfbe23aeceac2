package cli

import (
	"flag"
	"os"
	"runtime"
	"runtime/pprof"
)

// Profiler is the shared -cpuprofile/-memprofile registration of the
// cmd/* binaries, so scheduling and replay hot paths can be profiled
// without recompiling:
//
//	prof := cli.ProfileVars(fs)
//	return cli.Run(fs, args, stderr, func() error { return prof.Run(body) })
//
// Run profiles the CPU while body runs when -cpuprofile was given, and
// after a successful body writes the -memprofile heap snapshot (after a
// GC, so it reflects live memory). Both files are in the pprof format
// `go tool pprof` reads.
type Profiler struct {
	cpu *string
	mem *string
}

// ProfileVars registers the -cpuprofile and -memprofile flags on fs.
func ProfileVars(fs *flag.FlagSet) *Profiler {
	return &Profiler{
		cpu: fs.String("cpuprofile", "", "write a CPU profile to this file (go tool pprof)"),
		mem: fs.String("memprofile", "", "write a heap profile to this file at exit (go tool pprof)"),
	}
}

// Run runs body under the requested profiles and returns the first
// error of body and of writing the profiles. The CPU profile is stopped
// and its file closed on every path; the heap profile covers successful
// runs only.
func (p *Profiler) Run(body func() error) error {
	var cpu *os.File
	if *p.cpu != "" {
		f, err := os.Create(*p.cpu)
		if err != nil {
			return err
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			return err
		}
		cpu = f
	}
	err := body()
	if cpu != nil {
		pprof.StopCPUProfile()
		if cerr := cpu.Close(); err == nil {
			err = cerr
		}
	}
	if err != nil || *p.mem == "" {
		return err
	}
	f, err := os.Create(*p.mem)
	if err != nil {
		return err
	}
	runtime.GC() // the heap profile should show live memory, not garbage
	if err := pprof.WriteHeapProfile(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
