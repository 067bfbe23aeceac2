// Package engine is the shared batch-evaluation layer of the model: it
// fans independent evaluation jobs out across a bounded number of
// workers and collects their results in deterministic (submission) order.
//
// The paper's program flow (Section III.B.6, Figure 4) resolves a
// description once and then evaluates many operating points against it —
// the sensitivity sweep builds ~40 model variants, the scheme comparison
// six, the datasheet verification a dozen, the generation-trend builder
// one per roadmap node. All of those call sites are embarrassingly
// parallel: every job clones its inputs, builds its own Model and reads
// only immutable cached state. This package gives them one execution
// substrate instead of four hand-rolled serial loops.
//
// Semantics:
//
//   - Results are returned in job order regardless of completion order,
//     so a parallel run is byte-identical to a serial one.
//   - Every job runs even if an earlier job failed ("partial results"):
//     the result slice always has one slot per job, holding the zero
//     value for failed jobs.
//   - The returned error is the first failure in job order (not in
//     completion order), wrapped untouched so errors.As/Is keep working.
//   - Workers <= 0 selects runtime.GOMAXPROCS(0), so a process with one
//     P runs every batch serially; the worker count never exceeds the
//     job count and never goes below one.
//   - Each call starts its own workers and waits for them, so concurrent
//     callers never wait on each other and a job may run a nested batch.
//     A caller bounds its goroutines by bounding its concurrent calls.
//
// The package also holds Pipeline (pipeline.go), the double-buffered
// producer/consumer ring both streaming paths run on.
package engine

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// Options configures a batch evaluation.
type Options struct {
	// Workers is the most workers one call runs its jobs on. Zero or
	// negative selects runtime.GOMAXPROCS(0). One worker runs the jobs on
	// the caller and reproduces the serial evaluation exactly (same
	// order, same allocations per job).
	Workers int
}

// workers resolves the worker count for n jobs.
func (o Options) workers(n int) int {
	w := o.Workers
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	if w > n {
		w = n
	}
	if w < 1 {
		w = 1
	}
	return w
}

// Run executes the jobs on the workers opts resolves for them and returns
// their results in job order. All jobs are attempted; the error is the first
// failure in job order, with the zero value left in that job's result
// slot (first-error + partial-results semantics).
func Run[T any](jobs []func() (T, error), opts Options) ([]T, error) {
	results := make([]T, len(jobs))
	if len(jobs) == 0 {
		return results, nil
	}
	errs := make([]error, len(jobs))
	w := opts.workers(len(jobs))
	if w == 1 {
		// Serial fast path: no goroutines.
		for i, job := range jobs {
			results[i], errs[i] = job()
		}
	} else {
		// Each worker claims the next unrun job index until none is left;
		// the caller only waits.
		var next atomic.Int64
		var wg sync.WaitGroup
		wg.Add(w)
		for g := 0; g < w; g++ {
			go func() {
				defer wg.Done()
				for {
					i := int(next.Add(1)) - 1
					if i >= len(jobs) {
						return
					}
					results[i], errs[i] = jobs[i]()
				}
			}()
		}
		wg.Wait()
	}
	for _, err := range errs {
		if err != nil {
			return results, err
		}
	}
	return results, nil
}

// Map runs f over every item as a Run batch and returns the outputs
// in item order. f receives the item index alongside the item so error
// messages and labels can be positional. Semantics match Run.
func Map[In, Out any](items []In, f func(i int, item In) (Out, error), opts Options) ([]Out, error) {
	jobs := make([]func() (Out, error), len(items))
	for i := range items {
		i := i
		jobs[i] = func() (Out, error) { return f(i, items[i]) }
	}
	return Run(jobs, opts)
}
