package ctl

import (
	"bytes"
	"fmt"
	"io"
	"runtime"
	"testing"
	"unsafe"

	"drampower/internal/core"
	"drampower/internal/trace"
)

// interleaveScan is the merge's oracle, the scan trace.Interleave used to
// be: repeatedly take the channel whose next command has the least slot,
// the lowest channel on a tie.
func interleaveScan(channels [][]trace.Command, banksPerChannel int) []trace.Command {
	total := 0
	for _, c := range channels {
		total += len(c)
	}
	out := make([]trace.Command, 0, total)
	idx := make([]int, len(channels))
	for len(out) < total {
		best := -1
		var bestSlot int64
		for ch := range channels {
			i := idx[ch]
			if i >= len(channels[ch]) {
				continue
			}
			if s := channels[ch][i].Slot; best < 0 || s < bestSlot {
				best, bestSlot = ch, s
			}
		}
		c := channels[best][idx[best]]
		c.Bank += best * banksPerChannel
		out = append(out, c)
		idx[best]++
	}
	return out
}

// TestScheduleMatchesCollectThenOracle requires Schedule's streaming
// merge, and WriteSchedule's dtb bytes, to equal collecting every
// channel's stream and merging it with the oracle afterwards: for the
// open, closed and timeout policies on 1, 2, 4 and 8 channels, at 1, 2
// and 4 workers, from a slice source and from a .dab reader, over four
// pipeline rounds. The "idle" streams leave the last channel without a
// single request, so it holds the watermark at -1 and every other
// channel's commands wait for the final merge.
func TestScheduleMatchesCollectThenOracle(t *testing.T) {
	m := model(t)
	banks := m.D.Spec.Banks()
	policies := []Options{
		{Policy: PolicyOpen},
		{Policy: PolicyClosed, PowerDownAfter: 8},
		{Policy: PolicyTimeout, PageTimeout: 64, PowerDownAfter: 16, SelfRefreshAfter: 400},
	}
	for _, channels := range []int{1, 2, 4, 8} {
		gen := genOpts(3*schedBatch+57, 0.6, 5)
		gen.Channels = channels
		reqs, err := GenerateAccesses(m, gen)
		if err != nil {
			t.Fatal(err)
		}
		streams := map[string][]Request{"all": reqs}
		if channels > 1 {
			mp, err := MapperFor(m, channels, DefaultMap)
			if err != nil {
				t.Fatal(err)
			}
			var busy []Request
			for _, r := range reqs {
				if co, err := mp.Map(r.Addr); err != nil || co.Channel != channels-1 {
					busy = append(busy, r)
				}
			}
			streams["idle"] = busy
		}
		for name, reqs := range streams {
			var dab bytes.Buffer
			if err := WriteBinaryAccessTrace(&dab, reqs); err != nil {
				t.Fatal(err)
			}
			for _, base := range policies {
				base.Channels = channels
				c, err := NewController(m, base)
				if err != nil {
					t.Fatal(err)
				}
				col := newCollectSink(channels)
				wantStats, err := c.ScheduleInto(NewSliceSource(reqs), col)
				if err != nil {
					t.Fatal(err)
				}
				want := interleaveScan(col.chans, banks)
				var wantBin bytes.Buffer
				if err := trace.WriteBinaryTrace(&wantBin, want); err != nil {
					t.Fatal(err)
				}
				for _, workers := range []int{1, 2, 4} {
					opts := base
					opts.Workers = workers
					t.Run(fmt.Sprintf("%dch/%s/%s/%dw", channels, name, opts.PolicySpec(), workers), func(t *testing.T) {
						for src, run := range map[string]func() ([]trace.Command, Stats, error){
							"slice":  func() ([]trace.Command, Stats, error) { return ScheduleRequests(m, reqs, opts) },
							"reader": func() ([]trace.Command, Stats, error) { return Schedule(m, bytes.NewReader(dab.Bytes()), opts) },
						} {
							got, stats, err := run()
							if err != nil {
								t.Fatalf("%s: %v", src, err)
							}
							if stats != wantStats {
								t.Fatalf("%s: stats %+v, want %+v", src, stats, wantStats)
							}
							if len(got) != len(want) {
								t.Fatalf("%s: %d commands, want %d", src, len(got), len(want))
							}
							for i := range want {
								if got[i] != want[i] {
									t.Fatalf("%s: command %d = %v, want %v", src, i, got[i], want[i])
								}
							}
						}
						var bin bytes.Buffer
						stats, err := WriteSchedule(m, bytes.NewReader(dab.Bytes()), opts, trace.NewBinaryWriter(&bin))
						if err != nil {
							t.Fatal(err)
						}
						if stats != wantStats || !bytes.Equal(bin.Bytes(), wantBin.Bytes()) {
							t.Fatalf("WriteSchedule: stats %+v and %d bytes, want %+v and %d bytes",
								stats, bin.Len(), wantStats, wantBin.Len())
						}
					})
				}
			}
		}
	}
}

// totalAlloc returns the bytes f allocates, from runtime.MemStats.
func totalAlloc(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// longOptions is perfbench replay-dtb's scheduling shape: eight channels,
// closed page, power-down after 8 idle slots, serial.
var longOptions = Options{Policy: PolicyClosed, Channels: 8, PowerDownAfter: 8, Workers: 1}

func longRequests(t *testing.T, m *core.Model, n int) []Request {
	t.Helper()
	reqs, err := GenerateAccesses(m, GenOptions{N: n, RowHit: 0.5, ReadShare: 0.7, Gap: 6, Seed: 7, Channels: longOptions.Channels})
	if err != nil {
		t.Fatal(err)
	}
	return reqs
}

// TestScheduleAllocatesOneTrace pins Schedule's memory: on a 200k-request
// stream over eight channels it allocates its result plus O(round), at
// most 1.3 times the result's bytes. Collecting every channel and then
// merging into a second trace-sized slice allocated about 2.1 times.
func TestScheduleAllocatesOneTrace(t *testing.T) {
	m := model(t)
	reqs := longRequests(t, m, 200_000)
	schedule(t, m, reqs, longOptions) // warm the pooled round buffers
	var cmds []trace.Command
	alloc := totalAlloc(func() { cmds, _ = schedule(t, m, reqs, longOptions) })
	result := uint64(len(cmds)) * uint64(unsafe.Sizeof(trace.Command{}))
	if float64(alloc) > 1.3*float64(result) {
		t.Errorf("Schedule of %d requests allocated %d bytes, %.2f times its %d-byte result (want at most 1.3)",
			len(reqs), alloc, float64(alloc)/float64(result), result)
	}
}

// TestWriteScheduleMemoryFlat pins the streaming emit: writing the
// schedule of 100k and of 400k requests allocates the same few MB, since
// with every channel receiving requests only O(round) commands are ever
// held and writing a command allocates nothing.
func TestWriteScheduleMemoryFlat(t *testing.T) {
	m := model(t)
	emit := func(reqs []Request) uint64 {
		return totalAlloc(func() {
			c, err := NewController(m, longOptions)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := c.WriteSchedule(NewSliceSource(reqs), trace.NewTextWriter(io.Discard)); err != nil {
				t.Fatal(err)
			}
		})
	}
	short, long := longRequests(t, m, 100_000), longRequests(t, m, 400_000)
	emit(short) // warm the pooled round buffers
	a, b := emit(short), emit(long)
	const limit = 8 << 20
	if a > limit || b > limit || b > a+a/4 {
		t.Errorf("WriteSchedule allocated %d bytes for %d requests and %d for %d (want at most %d, and no growth)",
			a, len(short), b, len(long), limit)
	}
}
