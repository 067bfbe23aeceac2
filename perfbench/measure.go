package main

import (
	"bufio"
	"fmt"
	"math"
	"os"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// userHZ is the kernel's USER_HZ, the unit of /proc/stat times. It is 100
// on every Linux architecture Go supports.
const userHZ = 100

// stealSeconds reads the host-wide hypervisor steal time from /proc/stat:
// the eighth value of the aggregate "cpu" line, summed over all vCPUs.
func stealSeconds() (float64, error) {
	f, err := os.Open("/proc/stat")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) < 9 || fields[0] != "cpu" {
			continue
		}
		ticks, err := strconv.ParseUint(fields[8], 10, 64)
		if err != nil {
			return 0, fmt.Errorf("/proc/stat steal: %w", err)
		}
		return float64(ticks) / userHZ, nil
	}
	if err := sc.Err(); err != nil {
		return 0, err
	}
	return 0, fmt.Errorf("/proc/stat: no aggregate cpu line")
}

// clocks reads the VM's cumulative steal and the process's user+sys CPU
// time (getrusage), in seconds. The CPU time counts every thread, GC
// workers and in-process clients included, and excludes time the
// hypervisor stole.
func clocks() (steal, cpu float64, err error) {
	if steal, err = stealSeconds(); err != nil {
		return 0, 0, err
	}
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, 0, fmt.Errorf("getrusage: %w", err)
	}
	return steal, float64(ru.Utime.Nano()+ru.Stime.Nano()) / 1e9, nil
}

// deliveredShare is cpu / (cpu + steal): the share of the CPU time asked
// for that the hypervisor delivered. Every wall time the benchmark
// reports is scaled by it, so host steal does not count as program time.
func deliveredShare(cpu, steal float64) float64 {
	if cpu+steal <= 0 {
		return 1
	}
	return cpu / (cpu + steal)
}

// timed runs f and returns its wall time in ns, steal excluded.
func timed(f func() error) (float64, error) {
	s0, c0, err := clocks()
	if err != nil {
		return 0, err
	}
	t := time.Now()
	if err := f(); err != nil {
		return 0, err
	}
	wall := float64(time.Since(t))
	s1, c1, err := clocks()
	return wall * deliveredShare(c1-c0, s1-s0), err
}

// peakRSSMB returns the process's peak resident set (VmHWM) in MB (10^6
// bytes).
func peakRSSMB() (float64, error) {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			f := strings.Fields(rest)
			if len(f) != 2 || f[1] != "kB" {
				return 0, fmt.Errorf("unexpected VmHWM line %q", line)
			}
			kb, err := strconv.ParseFloat(f[0], 64)
			if err != nil {
				return 0, fmt.Errorf("VmHWM: %w", err)
			}
			return kb * 1024 / 1e6, nil
		}
	}
	return 0, fmt.Errorf("/proc/self/status: no VmHWM line")
}

// runtimeCounters reads cumulative heap allocation and GC CPU from
// runtime/metrics, which (unlike ReadMemStats) does not stop the world.
type runtimeCounters struct{ s []metrics.Sample }

func newRuntimeCounters() *runtimeCounters {
	return &runtimeCounters{s: []metrics.Sample{
		{Name: "/gc/heap/allocs:bytes"},
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
	}}
}

// read returns cumulative allocated bytes, GC CPU seconds and total CPU
// seconds (the runtime's own estimate, which the GC fraction is taken
// against).
func (rc *runtimeCounters) read() (alloc uint64, gcCPU, totalCPU float64) {
	metrics.Read(rc.s)
	return rc.s[0].Value.Uint64(), rc.s[1].Value.Float64(), rc.s[2].Value.Float64()
}

// median returns the middle of xs (the mean of the two middles for an
// even count). xs is sorted in place.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sort.Float64s(xs)
	n := len(xs)
	if n%2 == 1 {
		return xs[n/2]
	}
	return (xs[n/2-1] + xs[n/2]) / 2
}

// tailLadder is the set of percentiles latency_tail_ms chooses from. Its
// decade steps keep the chosen rung stable when a run completes a few
// percent more or fewer calls than the last one.
var tailLadder = []float64{50, 90, 99, 99.9, 99.99, 99.999}

// tail returns the highest ladder percentile of sorted that has at least
// ten samples beyond it (nearest rank), its value and that sample count.
func tail(sorted []float64) (pct, v float64, beyond int) {
	n := len(sorted)
	pct, v, beyond = 0, sorted[n-1], 0
	for _, p := range tailLadder {
		// Nearest rank ceil(p/100 * n), in integers so that 99.9% of 70000
		// is rank 69930 exactly.
		milli := int64(math.Round(p * 1000))
		idx := int((milli*int64(n)+100_000-1)/100_000) - 1
		if idx < 0 {
			idx = 0
		}
		if b := n - 1 - idx; b >= 10 {
			pct, v, beyond = p, sorted[idx], b
		}
	}
	return pct, v, beyond
}
