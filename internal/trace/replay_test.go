package trace

import (
	"bytes"
	"errors"
	"fmt"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"drampower/internal/desc"
)

// traceText renders commands into trace text for replay tests.
func traceText(t *testing.T, cmds []Command) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := WriteTrace(&buf, cmds); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestReplaySingleChannelMatchesRun(t *testing.T) {
	m := model(t)
	cmds := RandomClosedPage(m, 500, 0.5, 21)
	want, err := Evaluate(m, cmds)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Replay(m, bytes.NewReader(traceText(t, cmds)), ReplayOptions{Channels: 1, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	// Bit-identical, not approximately equal: same simulator, same order,
	// same float accumulation.
	if got.CommandEnergy != want.CommandEnergy || got.Background != want.Background ||
		got.Total != want.Total || got.Bits != want.Bits || got.Slots != want.Slots ||
		got.BusUtilization != want.BusUtilization {
		t.Errorf("replay differs from in-memory run:\n run:    %+v\n replay: %+v", want, got)
	}
	for _, op := range desc.AllOps {
		if got.Counts[op] != want.Counts[op] {
			t.Errorf("count %v: got %d, want %d", op, got.Counts[op], want.Counts[op])
		}
	}
}

func TestReplayMultiChannelDeterministic(t *testing.T) {
	m := model(t)
	banks := m.D.Spec.Banks()
	const channels = 4
	per := make([][]Command, channels)
	for ch := range per {
		per[ch] = RandomClosedPage(m, 120, 0.5, int64(ch+1))
	}
	data := traceText(t, Interleave(per, banks))

	var results []Result
	for _, workers := range []int{1, 2, channels, 2 * channels} {
		res, err := Replay(m, bytes.NewReader(data), ReplayOptions{Channels: channels, Workers: workers})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		results = append(results, res)
	}
	for i, r := range results[1:] {
		if r.CommandEnergy != results[0].CommandEnergy || r.Total != results[0].Total ||
			r.Bits != results[0].Bits || r.Slots != results[0].Slots {
			t.Errorf("result with workers variant %d differs from serial:\n serial: %+v\n got:    %+v",
				i+1, results[0], r)
		}
	}
}

func TestReplayMergesChannels(t *testing.T) {
	m := model(t)
	banks := m.D.Spec.Banks()
	c0 := RandomClosedPage(m, 100, 0.7, 5)
	c1 := Streaming(m, 300, 0.3, 6)
	data := traceText(t, Interleave([][]Command{c0, c1}, banks))

	got, err := Replay(m, bytes.NewReader(data), ReplayOptions{Channels: 2, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}

	// Reference: run each channel on its own simulator and merge by hand
	// at the common end slot.
	s0, s1 := New(m), New(m)
	if err := s0.Run(c0); err != nil {
		t.Fatal(err)
	}
	if err := s1.Run(c1); err != nil {
		t.Fatal(err)
	}
	end := s0.Now()
	if s1.Now() > end {
		end = s1.Now()
	}
	end += int64(m.BurstSlots())
	r0, r1 := s0.Result(end), s1.Result(end)

	if got.Slots != end {
		t.Errorf("slots: got %d, want %d", got.Slots, end)
	}
	if got.CommandEnergy != r0.CommandEnergy+r1.CommandEnergy {
		t.Errorf("command energy: got %v, want %v", got.CommandEnergy, r0.CommandEnergy+r1.CommandEnergy)
	}
	if got.Background != r0.Background+r1.Background {
		t.Errorf("background: got %v, want %v", got.Background, r0.Background+r1.Background)
	}
	if got.Bits != r0.Bits+r1.Bits {
		t.Errorf("bits: got %d, want %d", got.Bits, r0.Bits+r1.Bits)
	}
	for _, op := range desc.AllOps {
		if got.Counts[op] != r0.Counts[op]+r1.Counts[op] {
			t.Errorf("count %v: got %d, want %d", op, got.Counts[op], r0.Counts[op]+r1.Counts[op])
		}
	}
	wantUtil := (r0.BusUtilization + r1.BusUtilization) / 2
	if got.BusUtilization != wantUtil {
		t.Errorf("bus utilization: got %v, want %v", got.BusUtilization, wantUtil)
	}
}

func TestReplayBankOutOfRange(t *testing.T) {
	m := model(t)
	banks := m.D.Spec.Banks()
	// Global bank just past the 2-channel system.
	src := "0 act " + strconv.Itoa(2*banks) + " 1\n"
	_, err := Replay(m, strings.NewReader(src), ReplayOptions{Channels: 2})
	var te *TimingError
	if !errors.As(err, &te) {
		t.Fatalf("error is %T (%v), want *TimingError", err, err)
	}
	if !strings.Contains(err.Error(), "2-channel") {
		t.Errorf("error %q does not mention the channel system", err)
	}
}

// The bank-range rule rejects a whole round from the consumer's side: a
// bad bank partway through round two leaves every round-one command
// issued and none of round two, from either encoding.
func TestReplayBankOutOfRangeSecondRound(t *testing.T) {
	m := model(t)
	banks := m.D.Spec.Banks()
	per := make([][]Command, 2)
	for ch := range per {
		per[ch] = RandomClosedPage(m, replayBatch/4, 0.5, int64(ch+1))
	}
	cmds := Interleave(per, banks) // 1.5 rounds
	bad := replayBatch + 1000
	if cmds[bad-1].Slot <= cmds[replayBatch-1].Slot {
		t.Fatalf("round two does not advance past slot %d before the bad bank", cmds[replayBatch-1].Slot)
	}
	cmds[bad].Bank = 2 * banks
	wantErr := fmt.Sprintf("bank %d outside the 2-channel x %d-bank system", 2*banks, banks)

	ref := NewReplayer(m, ReplayOptions{Channels: 2, Workers: 1})
	if err := ref.ReplaySource(NewSliceSource(cmds[:replayBatch])); err != nil {
		t.Fatal(err)
	}
	end := cmds[len(cmds)-1].Slot
	want := ref.Result(end)
	for name, data := range map[string][]byte{"text": traceText(t, cmds), "binary": binData(t, cmds)} {
		r := NewReplayer(m, ReplayOptions{Channels: 2, Workers: 2})
		err := r.Replay(bytes.NewReader(data))
		var te *TimingError
		if !errors.As(err, &te) || !strings.Contains(err.Error(), wantErr) {
			t.Fatalf("%s: error %v, want the %q *TimingError", name, err, wantErr)
		}
		if r.Now() != ref.Now() {
			t.Errorf("%s: replay reached slot %d, want round one's last slot %d", name, r.Now(), ref.Now())
		}
		if got := r.Result(end); !reflect.DeepEqual(got, want) {
			t.Errorf("%s: state after the rejected round differs from round one alone:\n got  %+v\n want %+v", name, got, want)
		}
	}
}

func TestReplayParseErrorPropagates(t *testing.T) {
	m := model(t)
	_, err := Replay(m, strings.NewReader("0 act 0 1\nbogus line\n"), ReplayOptions{})
	var pe *ParseError
	if !errors.As(err, &pe) {
		t.Fatalf("error is %T (%v), want *ParseError", err, err)
	}
	if pe.Line != 2 {
		t.Errorf("error line: got %d, want 2", pe.Line)
	}
}

// Acceptance: a 1M+ command trace streams through the replayer in bounded
// rounds (never materialized as one slice) with energy totals bit-identical
// to the in-memory Run path — from both the text and the dtb binary
// encoding, through the pipelined decoder.
func TestMillionCommandStreamMatchesRun(t *testing.T) {
	m := model(t)
	cmds := RandomClosedPage(m, 333334, 0.5, 42) // 1,000,002 commands
	if len(cmds) <= 1_000_000 {
		t.Fatalf("generated only %d commands, want > 1M", len(cmds))
	}
	want, err := Evaluate(m, cmds)
	if err != nil {
		t.Fatal(err)
	}
	var bin bytes.Buffer
	if err := WriteBinaryTrace(&bin, cmds); err != nil {
		t.Fatal(err)
	}
	encodings := map[string][]byte{"text": traceText(t, cmds), "binary": bin.Bytes()}
	for name, data := range encodings {
		got, err := Replay(m, bytes.NewReader(data), ReplayOptions{Channels: 1})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if got.CommandEnergy != want.CommandEnergy || got.Background != want.Background ||
			got.Total != want.Total || got.Bits != want.Bits || got.Slots != want.Slots {
			t.Errorf("%s 1M-command stream differs from in-memory run:\n run:    %+v\n stream: %+v", name, want, got)
		}
	}
}

// A timing violation in the final, parse-error-truncated round outranks
// the parse error: the violation happened at a slot the stream actually
// reached, while the parse error merely ended it.
func TestReplayViolationBeatsParseError(t *testing.T) {
	m := model(t)
	src := "10 rd 0 1\nbogus line\n" // rd on a bank that was never activated
	_, err := Replay(m, strings.NewReader(src), ReplayOptions{})
	var te *TimingError
	if !errors.As(err, &te) {
		t.Fatalf("error is %T (%v), want *TimingError (the violation, not the parse error)", err, err)
	}
	if te.Cmd.Slot != 10 {
		t.Errorf("violation at slot %d, want 10", te.Cmd.Slot)
	}
}

// Satellite bugfix: when several channels violate in the same round, the
// replayer must report the violation at the smallest slot, not the one on
// the lowest channel. Here channel 0 violates at slot 900 and channel 1 at
// slot 10; the old channel-order selection reported slot 900.
func TestReplayReportsEarliestViolation(t *testing.T) {
	m := model(t)
	banks := m.D.Spec.Banks()
	src := strings.Join([]string{
		"0 act 0 1",
		"10 rd " + strconv.Itoa(banks) + " 1", // channel 1: bank not active
		"900 act 0 2",                         // channel 0: bank already active
	}, "\n")
	_, err := Replay(m, strings.NewReader(src), ReplayOptions{Channels: 2, Workers: 2})
	var te *TimingError
	if !errors.As(err, &te) {
		t.Fatalf("error is %T (%v), want *TimingError", err, err)
	}
	if te.Cmd.Slot != 10 {
		t.Errorf("reported violation at slot %d, want the earliest (10): %v", te.Cmd.Slot, te)
	}
	if !strings.Contains(te.Error(), "not active") {
		t.Errorf("violation %q should be channel 1's bank-not-active", te)
	}
}

// Same-slot violations on two channels resolve to the lowest channel.
func TestReplayViolationTieResolvesToLowestChannel(t *testing.T) {
	m := model(t)
	banks := m.D.Spec.Banks()
	src := strings.Join([]string{
		"10 rd 0 1",                          // channel 0: bank not active
		"10 pdx " + strconv.Itoa(banks) + "", // channel 1: not in power-down
	}, "\n")
	_, err := Replay(m, strings.NewReader(src), ReplayOptions{Channels: 2, Workers: 2})
	var te *TimingError
	if !errors.As(err, &te) {
		t.Fatalf("error is %T (%v), want *TimingError", err, err)
	}
	if te.Cmd.Slot != 10 || !strings.Contains(te.Error(), "not active") {
		t.Errorf("tie at slot 10 should report channel 0's violation, got %v", te)
	}
}

// Satellite: merging when channel 0 issued zero commands — its Result has
// a nil Counts map, and the merge must still seed the map from the later
// channels and keep the residency/background sums intact.
func TestReplayMergeEmptyFirstChannel(t *testing.T) {
	m := model(t)
	banks := m.D.Spec.Banks()
	c1 := RandomClosedPage(m, 80, 0.5, 13)
	data := traceText(t, Interleave([][]Command{nil, c1}, banks))
	got, err := Replay(m, bytes.NewReader(data), ReplayOptions{Channels: 2, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	want, err := Evaluate(m, c1)
	if err != nil {
		t.Fatal(err)
	}
	if got.Counts == nil {
		t.Fatal("merged Counts map is nil despite channel 1 activity")
	}
	for _, op := range desc.AllOps {
		if got.Counts[op] != want.Counts[op] {
			t.Errorf("count %v: got %d, want %d", op, got.Counts[op], want.Counts[op])
		}
	}
	if got.Bits != want.Bits {
		t.Errorf("bits: got %d, want %d", got.Bits, want.Bits)
	}
	// Channel 0 idles in precharged standby for the whole duration, so the
	// merged background is channel 1's plus one full standby integral, and
	// the residency counters cover both channels.
	idle := New(m).Result(got.Slots)
	if got.Background != want.Background+idle.Background {
		t.Errorf("background: got %v, want %v + idle %v", got.Background, want.Background, idle.Background)
	}
	if sum := got.ActiveSlots + got.PrechargedSlots + got.PowerDownSlots + got.SelfRefreshSlots; sum != 2*got.Slots {
		t.Errorf("residency sum %d, want 2 x %d", sum, got.Slots)
	}
}

func TestInterleave(t *testing.T) {
	c0 := []Command{{Slot: 0, Op: desc.OpActivate, Bank: 1}, {Slot: 10, Op: desc.OpRead, Bank: 1}}
	c1 := []Command{{Slot: 5, Op: desc.OpActivate, Bank: 0}, {Slot: 10, Op: desc.OpRead, Bank: 0}}
	got := Interleave([][]Command{c0, c1}, 8)
	want := []Command{
		{Slot: 0, Op: desc.OpActivate, Bank: 1},
		{Slot: 5, Op: desc.OpActivate, Bank: 8},
		{Slot: 10, Op: desc.OpRead, Bank: 1}, // tie resolves in channel order
		{Slot: 10, Op: desc.OpRead, Bank: 8},
	}
	if len(got) != len(want) {
		t.Fatalf("got %d commands, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("command %d: got %v, want %v", i, got[i], want[i])
		}
	}
}
