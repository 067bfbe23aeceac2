// Package engine is the shared batch-evaluation layer of the model: a
// bounded worker pool that fans independent evaluation jobs out across
// CPUs and collects their results in deterministic (submission) order.
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
//   - Workers <= 0 selects runtime.NumCPU(); the pool never exceeds the
//     job count and never goes below one worker.
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
	// Workers bounds the worker pool. Zero or negative selects
	// runtime.NumCPU(). One worker reproduces the serial evaluation
	// exactly (same order, same allocations per job).
	Workers int
	// Pool, when set, executes the jobs on a shared long-lived worker
	// pool instead of spawning per-call goroutines. A long-running
	// process (the dramserved server) creates one Pool at startup and
	// threads it through every batch call, so concurrent requests share
	// one bounded set of CPU workers instead of multiplying goroutines.
	// Workers == 1 still forces the serial fast path; otherwise Workers
	// is ignored when Pool is set (the pool's size bounds parallelism).
	Pool *Pool
}

// Pool is a fixed set of long-lived workers shared across many Run/Map
// calls, typically across concurrent server requests. Jobs from separate
// calls interleave on the same workers, which caps the process's total
// evaluation parallelism at the pool size regardless of request
// concurrency. A Run/Map call issued from inside a pool worker (a job
// that itself fans out) is detected and executed inline on that worker
// instead of being resubmitted — resubmission could deadlock with every
// worker waiting for capacity only they can free. Inline execution keeps
// the deterministic result order; it merely forgoes extra parallelism for
// the nested batch.
type Pool struct {
	jobs chan func()
	size int
	// workerIDs holds the goroutine IDs of the pool's workers, so run can
	// recognize a re-entrant submission from one of its own workers.
	workerIDs sync.Map // map[int64]struct{}
}

// NewPool starts a pool of the given size (<= 0 selects runtime.NumCPU()).
func NewPool(size int) *Pool {
	if size <= 0 {
		size = runtime.NumCPU()
	}
	p := &Pool{jobs: make(chan func()), size: size}
	for i := 0; i < size; i++ {
		go func() {
			p.workerIDs.Store(goid(), struct{}{})
			defer p.workerIDs.Delete(goid())
			for job := range p.jobs {
				job()
			}
		}()
	}
	return p
}

// goid returns the current goroutine's ID, parsed from the runtime.Stack
// header ("goroutine 123 [running]:"). The runtime intentionally offers
// no cheaper accessor; one small fixed-buffer Stack call per Pool.run
// submission (not per job) is an acceptable price for making re-entrant
// submissions safe.
func goid() int64 {
	var buf [32]byte
	n := runtime.Stack(buf[:], false)
	var id int64
	for _, c := range buf[len("goroutine "):n] {
		if c < '0' || c > '9' {
			break
		}
		id = id*10 + int64(c-'0')
	}
	return id
}

// Size returns the worker count.
func (p *Pool) Size() int { return p.size }

// Close stops the workers after the queued jobs finish. Run calls in
// flight must have completed; submitting after Close panics.
func (p *Pool) Close() { close(p.jobs) }

// run executes the jobs on the shared workers and blocks until all are
// done. Result order is by job index, as in Run. Called from inside one
// of p's own workers it executes the jobs inline instead (see Pool).
func (p *Pool) run(n int, exec func(i int)) {
	if _, reentrant := p.workerIDs.Load(goid()); reentrant {
		for i := 0; i < n; i++ {
			exec(i)
		}
		return
	}
	var wg sync.WaitGroup
	wg.Add(n)
	for i := 0; i < n; i++ {
		i := i
		p.jobs <- func() {
			defer wg.Done()
			exec(i)
		}
	}
	wg.Wait()
}

// workers resolves the pool size for n jobs.
func (o Options) workers(n int) int {
	w := o.Workers
	if w <= 0 {
		w = runtime.NumCPU()
	}
	if w > n {
		w = n
	}
	if w < 1 {
		w = 1
	}
	return w
}

// Run executes the jobs on a bounded worker pool and returns their
// results in job order. All jobs are attempted; the error is the first
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
		// Serial fast path: no goroutines, no channel traffic.
		for i, job := range jobs {
			results[i], errs[i] = job()
		}
	} else if opts.Pool != nil {
		opts.Pool.run(len(jobs), func(i int) {
			results[i], errs[i] = jobs[i]()
		})
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

// Map runs f over every item on the worker pool and returns the outputs
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
