package ctl

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math"
	"os"
	"reflect"
	"testing"

	"drampower/internal/core"
	"drampower/internal/desc"
	"drampower/internal/timing"
	"drampower/internal/trace"
)

// convertAccessTrace renders a text access trace in the .dab binary
// encoding, for seeding the binary half of the fuzz corpus from the
// shared testdata.
func convertAccessTrace(f *testing.F, text []byte) []byte {
	f.Helper()
	sc := NewScanner(bytes.NewReader(text))
	var reqs []Request
	for sc.Scan() {
		reqs = append(reqs, sc.Request())
	}
	if err := sc.Err(); err != nil {
		f.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteBinaryAccessTrace(&buf, reqs); err != nil {
		f.Fatal(err)
	}
	return buf.Bytes()
}

// FuzzAccessScanner drives both access-trace parsers through the
// sniffing NewAccessSource with mutated inputs, seeded from the testdata
// sample (text and converted binary) plus handcrafted edge cases. The
// parsers must never panic, must only fail with positioned *ParseError,
// and every accepted request stream must survive its format's canonical
// round-trip.
func FuzzAccessScanner(f *testing.F) {
	if text, err := os.ReadFile("testdata/sample_access.txt"); err == nil {
		f.Add(text)
		f.Add(convertAccessTrace(f, text))
	}
	f.Add([]byte("0 r 0x2400\n12 w 0x2401\n"))
	f.Add([]byte("# only a comment\n\n  \t\n"))
	f.Add([]byte("9223372036854775807 WRITE 0xfffff # max slot\n"))
	f.Add([]byte("5 rd 0x # bad hex\n"))
	f.Add([]byte("0 r 1 trailing\n"))
	hdr := []byte{0xDA, 'D', 'A', 'B', 1}
	f.Add(append([]byte(nil), hdr...))                           // empty binary trace
	f.Add(append(append([]byte(nil), hdr...), 0x01, 0x02, 0x08)) // one write
	f.Add(append(append([]byte(nil), hdr...), 0x82, 0x00, 0x00)) // reserved flags
	f.Add(append(append([]byte(nil), hdr...), 0x00, 0x01, 0x00)) // negative slot
	f.Add([]byte{0xDA, 'D', 'A', 'B', 9})                        // bad version
	f.Add([]byte{0xDA, 'D'})                                     // truncated header

	f.Fuzz(func(t *testing.T, data []byte) {
		src := NewAccessSource(bytes.NewReader(data))
		var reqs []Request
		for src.Scan() {
			reqs = append(reqs, src.Request())
			if len(reqs) >= 4096 {
				break
			}
		}
		if err := src.Err(); err != nil {
			var pe *ParseError
			if !errors.As(err, &pe) {
				t.Fatalf("non-positioned scanner error %T: %v", err, err)
			}
			if pe.Line < 1 {
				t.Fatalf("scanner error with position %d: %v", pe.Line, pe)
			}
		}
		if len(reqs) == 0 {
			return
		}
		// Canonical round trips through both encodings.
		var text bytes.Buffer
		if err := WriteAccessTrace(&text, reqs); err != nil {
			t.Fatalf("accepted requests failed to render: %v", err)
		}
		rt := NewScanner(bytes.NewReader(text.Bytes()))
		for i := 0; rt.Scan(); i++ {
			if got := rt.Request(); got != reqs[i] {
				t.Fatalf("text round-trip request %d = %+v, want %+v", i, got, reqs[i])
			}
		}
		if err := rt.Err(); err != nil {
			t.Fatalf("canonical text failed to rescan: %v", err)
		}
		var bin bytes.Buffer
		if err := WriteBinaryAccessTrace(&bin, reqs); err != nil {
			t.Fatalf("accepted requests failed to encode: %v", err)
		}
		brt := NewBinaryScanner(bytes.NewReader(bin.Bytes()))
		for i := 0; brt.Scan(); i++ {
			if got := brt.Request(); got != reqs[i] {
				t.Fatalf("binary round-trip request %d = %+v, want %+v", i, got, reqs[i])
			}
		}
		if err := brt.Err(); err != nil {
			t.Fatalf("re-encoded trace failed to rescan: %v", err)
		}
	})
}

// fuzzRequests decodes up to 256 requests from data, three bytes each: a
// little-endian uint16 slot delta, then a coordinate byte whose bits
// pick the row (one of four, so streams mix hits and conflicts), the
// bank, the channel and read or write. Every address maps.
func fuzzRequests(mp *Mapper, channels int, data []byte) []Request {
	var reqs []Request
	slot := int64(0)
	for len(data) >= 3 && len(reqs) < 256 {
		slot += int64(binary.LittleEndian.Uint16(data))
		b := data[2]
		data = data[3:]
		addr, err := mp.Unmap(Coord{Row: int(b & 3), Bank: int(b>>2) & 7, Channel: int(b>>5&3) % channels})
		if err != nil {
			panic(err)
		}
		reqs = append(reqs, Request{Slot: slot, Write: b&0x80 != 0, Addr: addr})
	}
	return reqs
}

// FuzzScheduleReplay drives the scheduler with arbitrary access streams
// and controller options drawn from the whole int64 range: policy, page
// timeout, channels {1, 2, 4}, power-down and self-refresh thresholds,
// refresh interval and postponement bound. Every input must either be
// rejected with an error, by NewController or as a *ScheduleError, or
// schedule into a trace that replays with zero timing violations; fused
// scheduling must equal the two-phase path, and one worker must equal
// two. When the controller's refresh contract is at least as strict as
// the simulator's retention audit (the spec's tREFI or shorter, at most
// the JEDEC postponement bound), the replay must also miss no deadline.
//
// Each request's slot delta is capped at 2^16: a request far past the
// previous one makes the refresh scheduler emit one refresh per tREFI
// of the jump at once, so a stream reaching slot 2^40 would need ~176M
// refreshes and exhaust memory. That amplification is a known open
// defect, outside this target.
func FuzzScheduleReplay(f *testing.F) {
	var data []byte
	for i := 0; i < 256; i++ {
		data = binary.LittleEndian.AppendUint16(data, uint16(i*37%53))
		data = append(data, byte(i*73))
	}
	sparse := bytes.Clone(data)
	for i := 0; i < len(sparse); i += 3 {
		sparse[i+1] = byte(i) // deltas up to ~64k slots
	}
	// The page-timeout and power-down thresholds that wrapped the
	// controller's slot sums before the slot horizon existed.
	f.Add(uint8(PolicyTimeout), int64(math.MaxInt64), uint8(0), int64(0), int64(0), int64(0), int64(0), data)
	f.Add(uint8(PolicyClosed), int64(0), uint8(0), int64(math.MaxInt64), int64(0), int64(0), int64(0), data)
	f.Add(uint8(PolicyTimeout), int64(64), uint8(2), int64(16), int64(0), int64(0), int64(0), data)
	f.Add(uint8(PolicyTimeout), int64(1), uint8(1), int64(1), int64(400), int64(0), int64(1), sparse)
	f.Add(uint8(PolicyClosed), int64(0), uint8(2), int64(16), int64(400), int64(89), int64(0), sparse)
	f.Add(uint8(PolicyOpen), int64(0), uint8(1), int64(8), int64(0), int64(3000), int64(2), data)
	f.Add(uint8(PolicyOpen), int64(0), uint8(0), int64(0), int64(0), int64(slotHorizon/9), int64(8), sparse)

	m, err := core.Build(desc.Sample1GbDDR3())
	if err != nil {
		f.Fatal(err)
	}
	specREFI := timing.For(m.D.Spec).REFI
	f.Fuzz(func(t *testing.T, policy uint8, timeout int64, channels uint8, pd, sr, refresh, maxPost int64, data []byte) {
		opts := Options{
			Policy: Policy(policy % 3), PageTimeout: timeout, Channels: 1 << (channels % 3),
			PowerDownAfter: pd, SelfRefreshAfter: sr, RefreshEvery: refresh, MaxPostponed: int(maxPost),
			Workers: 1,
		}
		c, err := NewController(m, opts)
		if err != nil {
			return
		}
		reqs := fuzzRequests(c.Mapper(), opts.Channels, data)
		cmds, stats, err := c.Schedule(NewSliceSource(reqs))
		if err != nil {
			var se *ScheduleError
			if !errors.As(err, &se) {
				t.Fatalf("schedule failed with %T: %v", err, err)
			}
			return
		}
		rep := trace.NewReplayer(m, trace.ReplayOptions{Channels: opts.Channels, Workers: 1})
		if err := rep.ReplaySource(trace.NewSliceSource(cmds)); err != nil {
			t.Fatalf("scheduled trace illegal under %+v: %v", opts, err)
		}
		res := rep.Result(rep.Now() + int64(m.BurstSlots()))
		audited := c.RefreshIntervalSlots() <= specREFI && c.maxPost <= trace.MaxPostponedRefreshes
		if audited && res.MissedRefreshDeadlines != 0 {
			t.Fatalf("%d missed refresh deadlines under %+v", res.MissedRefreshDeadlines, opts)
		}

		for _, workers := range []int{1, 2} {
			o := opts
			o.Workers = workers
			fstats, fres, err := ScheduleReplayRequests(m, reqs, o, trace.ReplayOptions{Workers: workers})
			if err != nil {
				t.Fatalf("fused, %d workers: %v", workers, err)
			}
			if fstats != stats || !reflect.DeepEqual(fres, res) {
				t.Fatalf("fused at %d workers differs from two-phase:\nfused     %+v\ntwo-phase %+v", workers, fstats, stats)
			}
		}
		o := opts
		o.Workers = 2
		cmds2, stats2, err := ScheduleRequests(m, reqs, o)
		if err != nil || stats2 != stats || !reflect.DeepEqual(cmds2, cmds) {
			t.Fatalf("two workers schedule differently from one (err %v)", err)
		}
	})
}
