package engine

import (
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"sync/atomic"
	"testing"
	"time"
)

// ringBuf is a Pipeline test buffer: fill stamps it with its 1-based fill
// ordinal.
type ringBuf struct{ seq int }

// waitGoroutines polls until the goroutine count drops back to the
// baseline (the producer must exit on every path), failing after a
// generous deadline.
func waitGoroutines(t *testing.T, base int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			n := runtime.Stack(buf, true)
			t.Fatalf("goroutines leaked: %d > baseline %d\n%s", runtime.NumGoroutine(), base, buf[:n])
		}
		time.Sleep(time.Millisecond)
	}
}

// TestPipelineOrderAndLast: buffers reach the consumer in fill order, and
// a stream of n buffers ends after exactly n fills and n consumes whether
// last comes on the first, second or a later fill.
func TestPipelineOrderAndLast(t *testing.T) {
	for _, n := range []int{1, 2, 3, 10} {
		t.Run(fmt.Sprintf("last-at-%d", n), func(t *testing.T) {
			base := runtime.NumGoroutine()
			a, b := new(ringBuf), new(ringBuf)
			fills := 0 // producer-only; read after Pipeline returns
			var got []int
			err := Pipeline(a, b, func(buf *ringBuf) bool {
				fills++
				buf.seq = fills
				return fills == n
			}, func(buf *ringBuf) error {
				got = append(got, buf.seq)
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
			if fills != n {
				t.Errorf("fill ran %d times, want %d", fills, n)
			}
			want := make([]int, n)
			for i := range want {
				want[i] = i + 1
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("consumed fill ordinals %v, want %v", got, want)
			}
			// Both buffers are the caller's again: under -race, touching
			// them here would be reported if the producer still could.
			a.seq, b.seq = 0, 0
			waitGoroutines(t, base)
		})
	}
}

// TestPipelineConsumerErrorStopsProducer: a consumer error mid-stream is
// returned, stops an otherwise endless producer, and Pipeline returns
// only once the producer has exited — not while a fill racing the error
// is still running.
func TestPipelineConsumerErrorStopsProducer(t *testing.T) {
	boom := errors.New("consumer failed")
	for _, errAt := range []int{1, 2, 5} {
		t.Run(fmt.Sprintf("error-at-%d", errAt), func(t *testing.T) {
			base := runtime.NumGoroutine()
			a, b := new(ringBuf), new(ringBuf)
			var fills, inFill atomic.Int32
			err := Pipeline(a, b, func(buf *ringBuf) bool {
				inFill.Add(1)
				defer inFill.Add(-1)
				buf.seq = int(fills.Add(1))
				if buf.seq > errAt {
					// The fill racing the consumer's failure: slow, so a
					// Pipeline that returned without waiting for the
					// producer would leave it running.
					time.Sleep(20 * time.Millisecond)
				}
				return false // endless: only the consumer's error ends it
			}, func(buf *ringBuf) error {
				if buf.seq == errAt {
					return boom
				}
				return nil
			})
			if !errors.Is(err, boom) {
				t.Fatalf("got error %v, want %v", err, boom)
			}
			if n := inFill.Load(); n != 0 {
				t.Errorf("Pipeline returned with %d fill(s) still running", n)
			}
			// The failed buffer never returns to the ring, so the producer
			// can fill at most the other one after the failure.
			if n := int(fills.Load()); n > errAt+1 {
				t.Errorf("producer ran %d fills, want <= %d after a failure at %d", n, errAt+1, errAt)
			}
			a.seq, b.seq = 0, 0
			waitGoroutines(t, base)
		})
	}
}
