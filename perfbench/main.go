// Command perfbench is the repository's end-to-end benchmark. It runs one
// workload against the library (and, for serve-mix, an in-process
// dramserved on loopback), checks the output of every op against a
// reference computed at set-up, and prints its metrics; the last line of
// standard output is one JSON object. See README.md for the workloads and
// metrics.
//
//	go run . --workload replay-dtb --seed 1 --seconds 30 --trace 0
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"
)

const (
	// A run sets its workload up at least minSetups times and until
	// setupBudget has passed; setup_s is the median, and the last instance
	// serves the timed window.
	minSetups   = 5
	setupBudget = 2 * time.Second
	// warmup runs the op untimed so caches, pools and the heap settle.
	warmup = 2 * time.Second
)

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of a run.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: "+strings.Join(workloadNames, ", "))
	seed := fs.Uint64("seed", 1, "seed every input is generated from")
	seconds := fs.Int("seconds", 10, "length of the timed window in seconds")
	traced := fs.Int("trace", 0, "0: timed run, end-to-end metrics; 1: traced run, per-layer metrics")
	spansDir := fs.String("spans-dir", "", "directory the traced run writes its spans to (none when empty)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *seconds < 1 || (*traced != 0 && *traced != 1) {
		fmt.Fprintln(stderr, "perfbench: --seconds must be >= 1 and --trace 0 or 1")
		return 2
	}
	var (
		res result
		err error
	)
	if *traced == 1 {
		res, err = runTraced(stdout, *name, *seed, time.Duration(*seconds)*time.Second, *spansDir)
	} else {
		res, err = runTimed(stdout, *name, *seed, time.Duration(*seconds)*time.Second)
	}
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	return 0
}

// setupTimed sets the workload up repeatedly and returns the last instance
// with the median set-up time and the number of set-ups. Like every wall
// time, a set-up's excludes host steal.
func setupTimed(name string, seed uint64) (workload, float64, int, error) {
	var (
		w     workload
		times []float64
	)
	start := time.Now()
	for len(times) < minSetups || time.Since(start) < setupBudget {
		if w != nil {
			// Free the previous instance first, so the peak resident set
			// is one set-up's, not the sum of those the GC has not
			// reached yet.
			w.close()
			w = nil
			runtime.GC()
		}
		ns, err := timed(func() (err error) {
			w, err = setup(name, seed)
			return err
		})
		if err != nil {
			return nil, 0, 0, err
		}
		times = append(times, ns/1e9)
	}
	return w, median(times), len(times), nil
}

// callSample is one call of the timed window, in ns since it opened.
// delivered is the share of the CPU time the call asked for that the host
// delivered, when it was measured per call (0 otherwise).
type callSample struct {
	start, end int64
	ops        int64
	failed     bool
	delivered  float64
}

// window is one closed-loop measurement: every client calls the op back
// to back until d has passed; calls started before then finish.
type window struct {
	calls []callSample
	wall  time.Duration
	cpu   float64 // process CPU, seconds
	steal float64 // VM steal, seconds
	err   error   // first failure, for the report
}

func measure(w workload, d time.Duration) (window, error) {
	n := w.clients()
	per := make([][]callSample, n)
	errs := make([]error, n)
	steal0, cpu0, err := clocks()
	if err != nil {
		return window{}, err
	}
	// With one client, the VM's steal during a call is the call's own, so
	// each call gets its own delivered share. Concurrent clients share
	// the window's.
	perCall := n == 1
	t0 := time.Now()
	var wg sync.WaitGroup
	for c := 0; c < n; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for {
				start := time.Since(t0)
				if start >= d {
					return
				}
				// A call whose clocks cannot be read keeps delivered 0 and
				// falls back to the window's share.
				var s0, c0 float64
				measured := false
				if perCall {
					var cerr error
					s0, c0, cerr = clocks()
					measured = cerr == nil
				}
				ops, err := w.call(c)
				sample := callSample{start: int64(start), ops: ops, failed: err != nil}
				if measured {
					if s1, c1, cerr := clocks(); cerr == nil {
						sample.delivered = deliveredShare(c1-c0, s1-s0)
					}
				}
				sample.end = int64(time.Since(t0))
				per[c] = append(per[c], sample)
				if err != nil && errs[c] == nil {
					errs[c] = err
				}
			}
		}(c)
	}
	wg.Wait()
	win := window{wall: time.Since(t0)}
	steal1, cpu1, err := clocks()
	if err != nil {
		return window{}, err
	}
	win.cpu, win.steal = cpu1-cpu0, steal1-steal0
	for c := range per {
		win.calls = append(win.calls, per[c]...)
	}
	win.err = errors.Join(errs...)
	return win, nil
}

// runTimed is the untraced run: set-up, warm-up, then one timed window,
// reported as the end-to-end metrics.
func runTimed(out io.Writer, name string, seed uint64, d time.Duration) (result, error) {
	w, setupS, setups, err := setupTimed(name, seed)
	if err != nil {
		return result{}, err
	}
	defer w.close()
	runtime.GC()
	if _, err := measure(w, warmup); err != nil {
		return result{}, err
	}
	win, err := measure(w, d)
	if err != nil {
		return result{}, err
	}
	rss, err := peakRSSMB()
	if err != nil {
		return result{}, err
	}

	// Wall times exclude host steal: each call's wall time is scaled by
	// the share of the CPU time asked for that the host delivered during
	// it, and the window's throughput by the window's share. On a quiet
	// host the shares are 1 and nothing changes.
	delivered := deliveredShare(win.cpu, win.steal)
	var attempted, failed int64
	lat := make([]float64, 0, len(win.calls))
	raw := make([]float64, 0, len(win.calls))
	for _, c := range win.calls {
		attempted += c.ops
		if c.failed {
			failed += c.ops
		}
		share := c.delivered
		if share == 0 {
			share = delivered
		}
		ms := float64(c.end-c.start) / 1e6
		raw = append(raw, ms)
		lat = append(lat, ms*share)
	}
	sort.Float64s(lat)
	sort.Float64s(raw)
	pct, tailMS, beyond := tail(lat)
	_, rawTail, _ := tail(raw)
	p50, rawP50 := median(lat), median(raw)
	rawThroughput := float64(attempted-failed) / win.wall.Seconds()
	errRate := float64(failed) / float64(attempted)
	m := map[string]metric{
		"setup_s":         {setupS, "s"},
		"throughput":      {rawThroughput / delivered, "ops/s"},
		"latency_p50_ms":  {p50, "ms"},
		"latency_tail_ms": {tailMS, "ms"},
		"cpu_ns_per_op":   {win.cpu * 1e9 / float64(attempted), "ns"},
		"peak_rss_mb":     {rss, "MB"},
		"success_rate":    {1 - errRate, "fraction"},
	}

	fmt.Fprintf(out, "perfbench %s seed=%d window=%.2fs calls=%d ops=%d\n", name, seed, win.wall.Seconds(), len(win.calls), attempted)
	row := func(k, note string) {
		fmt.Fprintf(out, "  %-16s %14.6g %-6s %s\n", k, m[k].Value, m[k].Unit, note)
	}
	row("setup_s", fmt.Sprintf("median of %d set-ups", setups))
	row("throughput", fmt.Sprintf("raw %.6g", rawThroughput))
	row("latency_p50_ms", fmt.Sprintf("raw %.6g", rawP50))
	row("latency_tail_ms", fmt.Sprintf("raw %.6g; p%g, %d of %d calls beyond it", rawTail, pct, beyond, len(lat)))
	row("cpu_ns_per_op", "user+sys, GC and in-process clients included")
	row("peak_rss_mb", "VmHWM")
	fmt.Fprintf(out, "  %-16s %14.6g %-6s %d of %d ops failed\n", "error_rate", errRate, "", failed, attempted)
	row("success_rate", "1 - error_rate")
	fmt.Fprintf(out, "noise: steal_s=%.2f cpu_s=%.2f delivered=%.4f gomaxprocs=%d numcpu=%d workers=%d clients=%d go=%s seed=%d\n",
		win.steal, win.cpu, delivered, runtime.GOMAXPROCS(0), runtime.NumCPU(), workers, w.clients(), runtime.Version(), seed)
	if win.err != nil {
		fmt.Fprintf(out, "first failure: %v\n", win.err)
	}
	return result{Correct: failed == 0, Attempted: attempted, Failed: failed, Metrics: m}, nil
}
