package engine

// The double-buffered ring behind both streaming paths: trace replay
// (decode round N+1 while round N simulates) and the controller's
// ScheduleInto (demultiplex round N+1 while round N schedules). DESIGN
// §11 has the contract.

// Pipeline runs fill on a producer goroutine and consume on the caller's
// goroutine over two caller-owned buffers, handed back and forth through
// a two-slot free/full ring, so the producer fills one buffer while the
// consumer works on the other. fill reports whether the buffer it just
// filled is the last; Pipeline returns nil once the last buffer is
// consumed, or consume's first error, which stops the producer early. A
// producer that hit a terminal condition (a parse error, say) records it
// in the buffer and reports last; consume then decides how it ranks
// against the work in that buffer.
//
// Buffers reach consume in fill order, fill runs only on the producer
// goroutine and consume only on the caller's, and Pipeline returns only
// after the producer has exited — so on every exit both buffers are the
// caller's again, safe to reuse or recycle.
func Pipeline[B any](a, b B, fill func(buf B) (last bool), consume func(buf B) error) error {
	// Only two buffers circulate, so with two slots neither send below
	// can block.
	free := make(chan B, 2)
	full := make(chan B, 2)
	quit := make(chan struct{})
	free <- a
	free <- b

	go func() {
		defer close(full)
		for {
			var buf B
			select {
			case buf = <-free:
			case <-quit:
				return
			}
			last := fill(buf)
			full <- buf
			if last {
				return
			}
		}
	}()
	defer func() {
		// Stop the producer and wait for it: it closes full on its way
		// out, so draining full to the end is the wait.
		close(quit)
		for range full {
		}
	}()

	for buf := range full {
		if err := consume(buf); err != nil {
			return err
		}
		free <- buf
	}
	return nil
}
