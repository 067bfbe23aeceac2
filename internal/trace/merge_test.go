package trace

import (
	"math"
	"testing"

	"drampower/internal/core"
	"drampower/internal/desc"
)

// interleaveScan is the merge's oracle: repeatedly scan every channel's
// next command and take the one with the least slot, the lowest channel
// on a tie.
func interleaveScan(channels [][]Command, banksPerChannel int) []Command {
	total := 0
	for _, c := range channels {
		total += len(c)
	}
	out := make([]Command, 0, total)
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

// sameCommands fails the test at the first command where got and want
// differ.
func sameCommands(t *testing.T, what string, got, want []Command) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d commands, want %d", what, len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%s: command %d = %+v, want %+v", what, i, got[i], want[i])
		}
	}
}

// TestInterleaveMatchesOracle merges the workload generators' channel
// traces, as dramtrace -gen does, at 1-9 channels (so power-of-two and
// other channel counts and empty channels), and hand-made streams whose
// slots span the whole int64 range, including negative slots and slots
// at math.MaxInt64, the slot of a spent channel's key.
func TestInterleaveMatchesOracle(t *testing.T) {
	m, err := core.Build(desc.Sample1GbDDR3())
	if err != nil {
		t.Fatal(err)
	}
	banks := m.D.Spec.Banks()
	for k := 1; k <= 9; k++ {
		per := make([][]Command, k)
		for ch := range per {
			s := int64(ch + 1)
			switch ch % 4 {
			case 0:
				per[ch] = Streaming(m, 300, 0.7, s)
			case 1:
				per[ch] = WithPowerDown(m, RandomClosedPage(m, 100, 0.5, s), 4)
			case 2:
				per[ch] = RefreshOnly(m, 20)
			}
		}
		sameCommands(t, "generators", Interleave(per, banks), interleaveScan(per, banks))
	}

	wide := make([][]Command, 17)
	for ch := range wide {
		for i := range 40 {
			slot := int64(i*i) << (ch % 7 * 8)
			switch ch % 5 {
			case 1:
				slot = math.MinInt64 + int64(i)
			case 3:
				slot = int64(i) << 57
			}
			wide[ch] = append(wide[ch], Command{Slot: slot, Op: desc.OpNop, Row: i})
		}
		if ch%3 == 0 {
			wide[ch] = append(wide[ch], Command{Slot: math.MaxInt64, Op: desc.OpNop, Row: ch})
		}
	}
	sameCommands(t, "wide slots", Interleave(wide, 4), interleaveScan(wide, 4))
	// Out of slot order, which no trace is, the order is unspecified but
	// every command still comes out once.
	unsorted := [][]Command{{{Slot: 10}, {Slot: 3}, {Slot: 1 << 62}, {Slot: -4}}, {{Slot: 7}, {Slot: 2}}}
	if got := Interleave(unsorted, 1); len(got) != 6 {
		t.Errorf("Interleave out of slot order returned %d commands, want 6", len(got))
	}
	if got := Interleave(nil, 8); len(got) != 0 {
		t.Errorf("Interleave of no channels = %v", got)
	}
}

// FuzzMerge drives a Merger with 1-16 channel streams of strictly
// increasing slots (ties across channels, jumps of up to 2^62 slots,
// negative starts) cut into rounds at random points. At each cut the new
// commands are queued and everything at or below a watermark at most the
// lowest last slot of any channel is merged; the final merge takes the
// rest. The concatenated output, and Interleave over the whole streams,
// must equal the oracle command for command, and Ready must count what
// each Merge appends.
func FuzzMerge(f *testing.F) {
	f.Add([]byte{7, 0, 1, 2, 2, 1, 3, 0, 0x80, 0, 4, 3, 5, 0x81, 6, 2, 0x80, 3, 1, 1})
	f.Add([]byte{0, 200, 0, 1, 0, 1, 0x80, 0, 0, 0xff, 0, 0})
	f.Add([]byte{15, 1, 3, 0x83, 9, 0xfe, 0x80, 1, 12, 2, 14, 0xc1, 0x80, 7, 2, 3})
	f.Add([]byte{3, 128, 0, 0, 1, 0, 2, 0, 0, 0, 1, 0, 2, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			return
		}
		const banks = 8
		k := 1 + int(data[0]%16)
		clock := int64(data[1]) - 128
		if data[1]&1 != 0 {
			clock = math.MinInt64 / 2
		}
		chans := make([][]Command, k)
		queued := make([]int, k)
		mg := NewMerger(k, banks)
		var got []Command
		released := int64(math.MinInt64) // the highest watermark merged at
		cut := func(lower int64) {
			w := int64(math.MaxInt64)
			for ch, cmds := range chans {
				q := mg.Queue(ch)
				*q = append(*q, cmds[queued[ch]:]...)
				queued[ch] = len(cmds)
				last := int64(math.MinInt64)
				if len(cmds) > 0 {
					last = cmds[len(cmds)-1].Slot
				}
				w = min(w, last)
			}
			if w > math.MinInt64+lower {
				w -= lower
			}
			n, before := mg.Ready(w), len(got)
			if got = mg.Merge(got, w); len(got)-before != n {
				t.Fatalf("Merge(%d) appended %d commands, Ready said %d", w, len(got)-before, n)
			}
			released = max(released, w)
			atOrBelow := 0
			for _, cmds := range chans {
				for _, c := range cmds {
					if c.Slot <= released {
						atOrBelow++
					}
				}
			}
			if len(got) != atOrBelow {
				t.Fatalf("after Merge(%d) %d commands are out, want the %d at or below %d", w, len(got), atOrBelow, released)
			}
		}
		for i := 2; i+1 < len(data); i += 2 {
			a, b := data[i], data[i+1]
			if a&0x80 != 0 {
				cut(int64(b % 8))
				continue
			}
			ch := int(a) % k
			step := int64(b & 3)
			if b&0x80 != 0 {
				step = 1 << (b >> 2 & 31 * 2)
			}
			clock = min(clock, math.MaxInt64-step) + step
			slot := clock
			if n := len(chans[ch]); n > 0 {
				last := chans[ch][n-1].Slot
				if last == math.MaxInt64 {
					continue
				}
				slot = max(slot, last+1)
			}
			chans[ch] = append(chans[ch], Command{Slot: slot, Op: desc.Op(int(b) % numTraceOps), Bank: int(a>>4) % banks, Row: i})
		}
		cut(0)
		got = mg.Merge(got, math.MaxInt64)
		want := interleaveScan(chans, banks)
		sameCommands(t, "Merger", got, want)
		sameCommands(t, "Interleave", Interleave(chans, banks), want)
		if n := mg.Ready(math.MaxInt64); n != 0 {
			t.Fatalf("%d commands still queued after the final merge", n)
		}
	})
}
