package engine

import (
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestRunOrderIsDeterministic(t *testing.T) {
	// Jobs finish in reverse submission order; results must still come
	// back in submission order.
	const n = 16
	jobs := make([]func() (int, error), n)
	for i := 0; i < n; i++ {
		i := i
		jobs[i] = func() (int, error) {
			time.Sleep(time.Duration(n-i) * time.Millisecond)
			return i * i, nil
		}
	}
	got, err := Run(jobs, Options{Workers: n})
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range got {
		if v != i*i {
			t.Errorf("result[%d] = %d, want %d", i, v, i*i)
		}
	}
}

func TestRunFirstErrorAndPartialResults(t *testing.T) {
	sentinel3 := errors.New("job 3 failed")
	sentinel7 := errors.New("job 7 failed")
	jobs := make([]func() (string, error), 10)
	var ran atomic.Int32
	for i := range jobs {
		i := i
		jobs[i] = func() (string, error) {
			ran.Add(1)
			switch i {
			case 3:
				return "", sentinel3
			case 7:
				return "", sentinel7
			}
			return fmt.Sprintf("ok-%d", i), nil
		}
	}
	got, err := Run(jobs, Options{Workers: 4})
	if !errors.Is(err, sentinel3) {
		t.Errorf("error = %v, want first error (job 3)", err)
	}
	if ran.Load() != 10 {
		t.Errorf("ran %d jobs, want all 10 despite failures", ran.Load())
	}
	if got[3] != "" || got[7] != "" {
		t.Errorf("failed slots not zeroed: %q, %q", got[3], got[7])
	}
	if got[0] != "ok-0" || got[9] != "ok-9" {
		t.Errorf("partial results lost: %q, %q", got[0], got[9])
	}
}

func TestRunEmptyAndSingle(t *testing.T) {
	if got, err := Run[int](nil, Options{}); err != nil || len(got) != 0 {
		t.Errorf("empty run: %v, %v", got, err)
	}
	got, err := Run([]func() (int, error){func() (int, error) { return 42, nil }}, Options{Workers: 8})
	if err != nil || len(got) != 1 || got[0] != 42 {
		t.Errorf("single run: %v, %v", got, err)
	}
}

// TestRunClaimsEveryJobOnce runs a table of worker and job counts with
// random job durations. Every job must run exactly once and its result
// land at its own index, and the error must be the lowest-index failure
// even though the later failing job fails first: the earlier one waits
// until the later one has failed.
func TestRunClaimsEveryJobOnce(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, w := range []int{2, 3, 8} {
		for _, n := range []int{1, w - 1, w, 3*w + 1, 200} {
			delays := make([]time.Duration, n)
			for i := range delays {
				delays[i] = time.Duration(rng.Intn(300)) * time.Microsecond
			}
			t.Run(fmt.Sprintf("w=%d/n=%d", w, n), func(t *testing.T) {
				lo, hi := (n-1)/2, n-1
				errLo, errHi := errors.New("lower job failed"), errors.New("higher job failed")
				hiFailed := make(chan struct{})
				runs := make([]atomic.Int32, n)
				jobs := make([]func() (int, error), n)
				for i := range jobs {
					i := i
					jobs[i] = func() (int, error) {
						runs[i].Add(1)
						time.Sleep(delays[i])
						switch {
						case i == hi && hi != lo:
							close(hiFailed)
							return 0, errHi
						case i == lo:
							if hi != lo {
								select {
								case <-hiFailed:
								case <-time.After(5 * time.Second):
								}
							}
							return 0, errLo
						}
						return 10*i + 1, nil
					}
				}
				got, err := Run(jobs, Options{Workers: w})
				if !errors.Is(err, errLo) {
					t.Errorf("error = %v, want the lowest-index failure %v", err, errLo)
				}
				if len(got) != n {
					t.Fatalf("%d results, want %d", len(got), n)
				}
				for i := range got {
					if r := runs[i].Load(); r != 1 {
						t.Errorf("job %d ran %d times, want 1", i, r)
					}
					want := 10*i + 1
					if i == lo || i == hi {
						want = 0
					}
					if got[i] != want {
						t.Errorf("result[%d] = %d, want %d", i, got[i], want)
					}
				}
			})
		}
	}
}

// TestRunRunsWorkersJobsAtOnce holds each of w jobs until all w have
// started: it passes only if Run really runs w jobs at once, and the
// timeout turns a pool that runs fewer into a failure instead of a hang.
func TestRunRunsWorkersJobsAtOnce(t *testing.T) {
	for _, w := range []int{2, 3, 8} {
		var arrived atomic.Int32
		all := make(chan struct{})
		jobs := make([]func() (int, error), w)
		for i := range jobs {
			jobs[i] = func() (int, error) {
				if arrived.Add(1) == int32(w) {
					close(all)
				}
				select {
				case <-all:
					return 1, nil
				case <-time.After(5 * time.Second):
					return 0, errors.New("timed out waiting for the other jobs to start")
				}
			}
		}
		if _, err := Run(jobs, Options{Workers: w}); err != nil {
			t.Errorf("w=%d: %v", w, err)
		}
	}
}

func TestWorkersClamp(t *testing.T) {
	procs := runtime.GOMAXPROCS(0)
	cases := []struct {
		workers, jobs, want int
	}{
		{0, 100, min(procs, 100)},  // 0 -> GOMAXPROCS
		{-5, 100, min(procs, 100)}, // negative -> GOMAXPROCS
		{0, 1, 1},
		{8, 3, 3}, // never more workers than jobs
		{1, 10, 1},
		{4, 10, 4},
	}
	for _, c := range cases {
		if got := (Options{Workers: c.workers}).workers(c.jobs); got != c.want {
			t.Errorf("Options{%d}.workers(%d) = %d, want %d", c.workers, c.jobs, got, c.want)
		}
	}
	// With one P the default is serial, so a single-CPU process never
	// starts workers it cannot run in parallel.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	if got := (Options{}).workers(100); got != 1 {
		t.Errorf("under GOMAXPROCS(1), Options{0}.workers(100) = %d, want 1", got)
	}
}

func TestMapPassesIndexAndItem(t *testing.T) {
	items := []string{"a", "b", "c"}
	got, err := Map(items, func(i int, s string) (string, error) {
		return fmt.Sprintf("%d:%s", i, s), nil
	}, Options{Workers: 3})
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"0:a", "1:b", "2:c"}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("map[%d] = %q, want %q", i, got[i], want[i])
		}
	}
}

func TestRunSerialMatchesParallel(t *testing.T) {
	jobs := make([]func() (float64, error), 33)
	for i := range jobs {
		i := i
		jobs[i] = func() (float64, error) { return float64(i) * 1.5, nil }
	}
	serial, err1 := Run(jobs, Options{Workers: 1})
	parallel, err2 := Run(jobs, Options{Workers: 8})
	if err1 != nil || err2 != nil {
		t.Fatal(err1, err2)
	}
	for i := range serial {
		if serial[i] != parallel[i] {
			t.Errorf("serial[%d]=%v parallel[%d]=%v", i, serial[i], i, parallel[i])
		}
	}
}

// TestRunConcurrentCalls runs many batches at once: each call still
// gets complete, ordered results and its own first error.
func TestRunConcurrentCalls(t *testing.T) {
	var wg sync.WaitGroup
	const callers = 16
	errCh := make(chan error, callers)
	for c := 0; c < callers; c++ {
		c := c
		wg.Add(1)
		go func() {
			defer wg.Done()
			out, err := Map(make([]int, 25), func(i int, _ int) (int, error) {
				if c == 7 && i == 13 {
					return 0, errors.New("boom")
				}
				return c*100 + i, nil
			}, Options{Workers: 3})
			if c == 7 {
				if err == nil || err.Error() != "boom" {
					errCh <- fmt.Errorf("caller 7: err = %v, want boom", err)
					return
				}
			} else if err != nil {
				errCh <- fmt.Errorf("caller %d: unexpected err %v", c, err)
				return
			}
			for i, v := range out {
				if c == 7 && i == 13 {
					if v != 0 {
						errCh <- fmt.Errorf("caller 7 slot 13 = %d, want zero value", v)
						return
					}
					continue
				}
				if v != c*100+i {
					errCh <- fmt.Errorf("caller %d slot %d = %d", c, i, v)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Error(err)
	}
}

// TestRunWorkersOneStaysSerial pins the serial path: with one worker the
// jobs run one at a time in job order, so they may share a variable
// without synchronization (make legality-race runs this under -race).
func TestRunWorkersOneStaysSerial(t *testing.T) {
	last := -1
	jobs := make([]func() (int, error), 8)
	for i := range jobs {
		i := i
		jobs[i] = func() (int, error) {
			if last != i-1 {
				return 0, fmt.Errorf("job %d ran after job %d", i, last)
			}
			last = i
			return i, nil
		}
	}
	out, err := Run(jobs, Options{Workers: 1})
	if err != nil || last != len(jobs)-1 || out[len(jobs)-1] != len(jobs)-1 {
		t.Fatalf("serial run: out=%v err=%v last=%d", out, err, last)
	}
}

// TestRunNested runs batches whose jobs each run a batch of their own,
// with more outer jobs than workers: the nested calls start their own
// workers, so none waits for a worker an outer job holds.
func TestRunNested(t *testing.T) {
	run := func() error {
		outer := make([]func() (int, error), 4)
		for i := range outer {
			i := i
			outer[i] = func() (int, error) {
				inner := []func() (int, error){
					func() (int, error) { return 10 * i, nil },
					func() (int, error) { return 10*i + 1, nil },
				}
				vals, err := Run(inner, Options{Workers: 2})
				if err != nil {
					return 0, err
				}
				return vals[0] + vals[1], nil
			}
		}
		out, err := Run(outer, Options{Workers: 2})
		if err != nil {
			return err
		}
		for i, v := range out {
			if want := 20*i + 1; v != want {
				return fmt.Errorf("job %d = %d, want %d", i, v, want)
			}
		}
		return nil
	}

	done := make(chan error, 1)
	go func() { done <- run() }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("nested Run deadlocked")
	}
}
