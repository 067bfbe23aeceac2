package ctl

import (
	"bytes"
	"errors"
	"math"
	"reflect"
	"strings"
	"testing"

	"drampower/internal/core"
	"drampower/internal/desc"
	"drampower/internal/trace"
)

func model(t *testing.T) *core.Model {
	t.Helper()
	m, err := core.Build(desc.Sample1GbDDR3())
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// replayAll runs a scheduled trace through the real Simulator/Replayer
// and fails the test on any timing violation — the legality contract.
func replayAll(t *testing.T, m *core.Model, cmds []trace.Command, channels, banksPerChannel int) trace.Result {
	t.Helper()
	if channels <= 1 {
		s := trace.New(m)
		if err := s.Run(cmds); err != nil {
			t.Fatalf("scheduled trace illegal: %v", err)
		}
		return s.Result(s.Now() + 4)
	}
	r := trace.NewReplayer(m, trace.ReplayOptions{Channels: channels})
	if err := r.ReplaySource(trace.NewSliceSource(cmds)); err != nil {
		t.Fatalf("scheduled trace illegal: %v", err)
	}
	return r.Result(r.Now() + 4)
}

// genOpts is the shared workload shape for the policy tests: enough
// requests to cycle every bank, a gap wide enough for power-down to pay.
func genOpts(n int, rowHit float64, gap int64) GenOptions {
	return GenOptions{N: n, RowHit: rowHit, ReadShare: 0.7, Gap: gap, Seed: 42}
}

func schedule(t *testing.T, m *core.Model, reqs []Request, opts Options) ([]trace.Command, Stats) {
	t.Helper()
	cmds, stats, err := ScheduleRequests(m, reqs, opts)
	if err != nil {
		t.Fatal(err)
	}
	return cmds, stats
}

// TestScheduleLegalAllPolicies is the acceptance-criteria pin: for every
// policy (and with power-down and self-refresh in play), replaying the
// scheduler's output reports zero timing violations.
func TestScheduleLegalAllPolicies(t *testing.T) {
	m := model(t)
	for _, tc := range []struct {
		name string
		opts Options
		gen  GenOptions
	}{
		{"open-dense", Options{Policy: PolicyOpen}, genOpts(3000, 0.5, 2)},
		{"open-sparse", Options{Policy: PolicyOpen, PowerDownAfter: 16}, genOpts(1000, 0.5, 200)},
		{"closed-dense", Options{Policy: PolicyClosed}, genOpts(3000, 0.5, 2)},
		{"closed-pd", Options{Policy: PolicyClosed, PowerDownAfter: 16}, genOpts(1000, 0.5, 200)},
		{"closed-sr", Options{Policy: PolicyClosed, PowerDownAfter: 16, SelfRefreshAfter: 300}, genOpts(500, 0.5, 1500)},
		{"timeout", Options{Policy: PolicyTimeout, PageTimeout: 64}, genOpts(2000, 0.5, 30)},
		{"timeout-pd", Options{Policy: PolicyTimeout, PageTimeout: 64, PowerDownAfter: 32}, genOpts(1000, 0.5, 400)},
		{"no-locality", Options{Policy: PolicyOpen}, genOpts(2000, 0, 1)},
		{"all-hits", Options{Policy: PolicyTimeout, PageTimeout: 1000}, genOpts(2000, 1, 1)},
	} {
		for _, channels := range []int{1, 2} {
			name := tc.name
			if channels > 1 {
				name += "-2ch"
			}
			t.Run(name, func(t *testing.T) {
				opts := tc.opts
				opts.Channels = channels
				gen := tc.gen
				gen.Channels = channels
				reqs, err := GenerateAccesses(m, gen)
				if err != nil {
					t.Fatal(err)
				}
				cmds, stats := schedule(t, m, reqs, opts)
				if stats.Requests != int64(gen.N) {
					t.Fatalf("scheduled %d of %d requests", stats.Requests, gen.N)
				}
				if got := stats.RowHits + stats.RowMisses + stats.RowConflicts; got != stats.Requests {
					t.Fatalf("outcome counts %d don't sum to requests %d", got, stats.Requests)
				}
				res := replayAll(t, m, cmds, channels, m.D.Spec.Banks())
				wantBursts := int64(gen.N)
				if got := res.Counts[desc.OpRead] + res.Counts[desc.OpWrite]; got != wantBursts {
					t.Fatalf("replayed %d column commands, want %d", got, wantBursts)
				}
				if opts.PowerDownAfter > 0 && tc.gen.Gap >= 200 && opts.Policy != PolicyOpen {
					if stats.PowerDowns+stats.SelfRefreshes == 0 {
						t.Fatalf("no low-power entries on a gap-%d stream", tc.gen.Gap)
					}
				}
			})
		}
	}
}

// TestScheduleDeterministic pins the byte-identity contract: scheduling
// the same access trace twice yields byte-identical dtb output.
func TestScheduleDeterministic(t *testing.T) {
	m := model(t)
	reqs, err := GenerateAccesses(m, GenOptions{N: 2000, RowHit: 0.6, ReadShare: 0.5, Gap: 7, Seed: 7, Channels: 2})
	if err != nil {
		t.Fatal(err)
	}
	opts := Options{Policy: PolicyTimeout, PageTimeout: 100, PowerDownAfter: 50, Channels: 2}
	var a, b bytes.Buffer
	cmds1, stats1 := schedule(t, m, reqs, opts)
	if err := trace.WriteBinaryTrace(&a, cmds1); err != nil {
		t.Fatal(err)
	}
	cmds2, stats2 := schedule(t, m, reqs, opts)
	if err := trace.WriteBinaryTrace(&b, cmds2); err != nil {
		t.Fatal(err)
	}
	if stats1 != stats2 {
		t.Fatalf("stats differ between runs:\n%+v\n%+v", stats1, stats2)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("dtb output differs between identical scheduling runs")
	}
	// And through the serialized access-trace round trip too: text and
	// binary .dab inputs must schedule to the same commands.
	var text, bin bytes.Buffer
	if err := WriteAccessTrace(&text, reqs); err != nil {
		t.Fatal(err)
	}
	if err := WriteBinaryAccessTrace(&bin, reqs); err != nil {
		t.Fatal(err)
	}
	for name, rd := range map[string]*bytes.Buffer{"text": &text, "binary": &bin} {
		cmds, stats, err := Schedule(m, rd, opts)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if stats != stats1 {
			t.Fatalf("%s: stats diverge from in-memory run", name)
		}
		var out bytes.Buffer
		if err := trace.WriteBinaryTrace(&out, cmds); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(out.Bytes(), a.Bytes()) {
			t.Fatalf("%s round trip changed the scheduled trace", name)
		}
	}
}

// TestRowHitKnob checks the generator's locality knob reaches the
// scheduler: higher RowHit must yield a strictly higher measured row-hit
// rate under the open policy.
func TestRowHitKnob(t *testing.T) {
	m := model(t)
	rate := func(rowHit float64) float64 {
		reqs, err := GenerateAccesses(m, genOpts(4000, rowHit, 2))
		if err != nil {
			t.Fatal(err)
		}
		_, stats := schedule(t, m, reqs, Options{Policy: PolicyOpen})
		return stats.RowHitRate()
	}
	lo, mid, hi := rate(0), rate(0.5), rate(0.95)
	if !(lo < mid && mid < hi) {
		t.Fatalf("row-hit rate not monotone in the knob: %.3f, %.3f, %.3f", lo, mid, hi)
	}
	if hi < 0.8 {
		t.Fatalf("rowhit=0.95 stream measured only %.3f hit rate", hi)
	}
	// Closed-page never hits: the bank is precharged after every access.
	reqs, err := GenerateAccesses(m, genOpts(1000, 0.95, 2))
	if err != nil {
		t.Fatal(err)
	}
	_, stats := schedule(t, m, reqs, Options{Policy: PolicyClosed})
	if stats.RowHits != 0 {
		t.Fatalf("closed policy reported %d row hits", stats.RowHits)
	}
}

// TestPolicyEnergyCrossover pins the paper-motivated headline: with a
// power-down policy in play, closed-page beats open-page energy on a
// low-locality stream and loses on a high-locality one.
func TestPolicyEnergyCrossover(t *testing.T) {
	m := model(t)
	energy := func(p Policy, rowHit float64) float64 {
		reqs, err := GenerateAccesses(m, genOpts(2000, rowHit, 100))
		if err != nil {
			t.Fatal(err)
		}
		cmds, _ := schedule(t, m, reqs, Options{Policy: p, PowerDownAfter: 24})
		res := replayAll(t, m, cmds, 1, m.D.Spec.Banks())
		return float64(res.Total)
	}
	if open, closed := energy(PolicyOpen, 0.05), energy(PolicyClosed, 0.05); closed >= open {
		t.Errorf("low locality: closed %.3g J should beat open %.3g J", closed, open)
	}
	if open, closed := energy(PolicyOpen, 0.98), energy(PolicyClosed, 0.98); open >= closed {
		t.Errorf("high locality: open %.3g J should beat closed %.3g J", open, closed)
	}
}

// TestTimeoutPolicyCloses checks the idle window actually fires and that
// the resulting trace still replays.
func TestTimeoutPolicyCloses(t *testing.T) {
	m := model(t)
	reqs, err := GenerateAccesses(m, genOpts(500, 0.9, 300))
	if err != nil {
		t.Fatal(err)
	}
	_, stats := schedule(t, m, reqs, Options{Policy: PolicyTimeout, PageTimeout: 80})
	if stats.TimeoutPrecharges == 0 {
		t.Fatal("no timeout precharges on a gap-300 stream with an 80-slot window")
	}
	_, open := schedule(t, m, reqs, Options{Policy: PolicyOpen})
	if open.TimeoutPrecharges != 0 {
		t.Fatal("open policy emitted timeout precharges")
	}
	if stats.RowHits >= open.RowHits {
		t.Fatalf("timeout policy should lose some hits to closures: %d vs open's %d", stats.RowHits, open.RowHits)
	}
}

func TestParsePolicy(t *testing.T) {
	for _, tc := range []struct {
		in      string
		policy  Policy
		timeout int64
		ok      bool
	}{
		{"open", PolicyOpen, 0, true},
		{"closed", PolicyClosed, 0, true},
		{"timeout=64", PolicyTimeout, 64, true},
		{"timeout=0", 0, 0, false},
		{"timeout=x", 0, 0, false},
		{"timeout", 0, 0, false},
		{"adaptive", 0, 0, false},
		{"", 0, 0, false},
	} {
		p, n, err := ParsePolicy(tc.in)
		if tc.ok != (err == nil) {
			t.Errorf("ParsePolicy(%q): err = %v, want ok=%v", tc.in, err, tc.ok)
			continue
		}
		if tc.ok && (p != tc.policy || n != tc.timeout) {
			t.Errorf("ParsePolicy(%q) = %v,%d, want %v,%d", tc.in, p, n, tc.policy, tc.timeout)
		}
	}
}

func TestScheduleErrors(t *testing.T) {
	m := model(t)
	// Out-of-order arrivals.
	_, _, err := ScheduleRequests(m, []Request{{Slot: 10, Addr: 0}, {Slot: 5, Addr: 0}}, Options{})
	var se *ScheduleError
	if !errors.As(err, &se) || se.Index != 1 {
		t.Fatalf("out-of-order: got %v", err)
	}
	// Address outside the mapped space.
	_, _, err = ScheduleRequests(m, []Request{{Slot: 0, Addr: 1 << 40}}, Options{})
	if !errors.As(err, &se) || !strings.Contains(err.Error(), "outside") {
		t.Fatalf("overrange address: got %v", err)
	}
	// Bad options surface as plain errors.
	if _, err := NewController(m, Options{Channels: 3}); err == nil {
		t.Fatal("3 channels accepted")
	}
	if _, err := NewController(m, Options{Policy: PolicyTimeout}); err == nil {
		t.Fatal("timeout policy without a window accepted")
	}
	if _, err := NewController(m, Options{Map: "ro:ba:co"}); err == nil {
		t.Fatal("3-field map accepted")
	}
	// A parse error in the access stream propagates as *ParseError.
	_, _, err = Schedule(m, strings.NewReader("0 q 12\n"), Options{})
	var pe *ParseError
	if !errors.As(err, &pe) || pe.Line != 1 {
		t.Fatalf("bad op: got %v", err)
	}
}

// TestSlotHorizon pins the controller's slot horizon. Each slot-valued
// option, the refresh window and each request slot past 2^61 slots is
// rejected with an error that names it. Unchecked, these values wrapped
// the controller's slot sums: a page timeout near 2^63 closed every row
// at once, a power-down threshold emitted an illegal trace, a
// self-refresh threshold entered self-refresh in every gap, and a huge
// refresh interval or postponement bound looped forever emitting
// refreshes.
func TestSlotHorizon(t *testing.T) {
	m := model(t)
	reqs, err := GenerateAccesses(m, genOpts(2000, 0.5, 30))
	if err != nil {
		t.Fatal(err)
	}
	const huge = math.MaxInt64
	for _, tc := range []struct {
		name   string
		opts   Options
		reqs   []Request
		substr string
	}{
		{"page-timeout", Options{Policy: PolicyTimeout, PageTimeout: huge}, reqs, "PageTimeout"},
		{"power-down", Options{Policy: PolicyClosed, PowerDownAfter: huge}, reqs, "PowerDownAfter"},
		{"self-refresh", Options{Policy: PolicyClosed, SelfRefreshAfter: huge}, reqs, "SelfRefreshAfter"},
		{"refresh-every", Options{RefreshEvery: huge}, reqs, "RefreshEvery"},
		{"max-postponed", Options{MaxPostponed: huge}, reqs, "MaxPostponed"},
		{"request-slot", Options{}, []Request{{Slot: 0}, {Slot: slotHorizon + 1}}, "request 1 "},
	} {
		t.Run(tc.name, func(t *testing.T) {
			_, _, err := ScheduleRequests(m, tc.reqs, tc.opts)
			if err == nil || !strings.Contains(err.Error(), tc.substr) || !strings.Contains(err.Error(), "horizon") {
				t.Fatalf("got %v, want an error naming %q and the horizon", err, tc.substr)
			}
		})
	}

	// At the horizon every option is accepted. A page timeout that never
	// expires schedules exactly like the open policy.
	open := Options{Policy: PolicyOpen, PowerDownAfter: slotHorizon, SelfRefreshAfter: slotHorizon}
	openCmds, _ := schedule(t, m, reqs, open)
	timeout := open
	timeout.Policy, timeout.PageTimeout = PolicyTimeout, slotHorizon
	cmds, stats := schedule(t, m, reqs, timeout)
	replayAll(t, m, cmds, 1, m.D.Spec.Banks())
	if stats.TimeoutPrecharges != 0 || stats.PowerDowns != 0 || stats.SelfRefreshes != 0 {
		t.Fatalf("horizon-sized windows fired: %+v", stats)
	}
	if !reflect.DeepEqual(cmds, openCmds) {
		t.Fatal("a page timeout at the horizon schedules differently from the open policy")
	}
	// Refresh is off here: with it on, the scheduler would emit every
	// refresh obligation up to the horizon, one command each.
	if _, _, err := ScheduleRequests(m, []Request{{Slot: slotHorizon}}, Options{DisableRefresh: true}); err != nil {
		t.Fatalf("request at the horizon: %v", err)
	}
	// The refresh window bound is exact: (8+1)*tREFI may reach the
	// horizon but not pass it.
	tREFI := int64(slotHorizon / (trace.MaxPostponedRefreshes + 1))
	if _, err := NewController(m, Options{RefreshEvery: tREFI}); err != nil {
		t.Fatalf("refresh window at the horizon: %v", err)
	}
	if _, err := NewController(m, Options{RefreshEvery: tREFI + 1}); err == nil || !strings.Contains(err.Error(), "MaxPostponed") {
		t.Fatalf("refresh window past the horizon: got %v", err)
	}
}

// TestPowerDownRequiresClosedBanks pins the policy coupling: under the
// open policy a bank held open blocks power-down entirely.
func TestPowerDownRequiresClosedBanks(t *testing.T) {
	m := model(t)
	reqs, err := GenerateAccesses(m, genOpts(200, 0.5, 500))
	if err != nil {
		t.Fatal(err)
	}
	_, stats := schedule(t, m, reqs, Options{Policy: PolicyOpen, PowerDownAfter: 16})
	if stats.PowerDowns != 0 {
		t.Fatalf("open policy powered down %d times with rows held open", stats.PowerDowns)
	}
	_, closed := schedule(t, m, reqs, Options{Policy: PolicyClosed, PowerDownAfter: 16})
	if closed.PowerDowns == 0 {
		t.Fatal("closed policy never powered down on a gap-500 stream")
	}
}

// TestSelfRefreshPreferred checks long gaps pick sre over pde and short
// ones fall back.
func TestSelfRefreshPreferred(t *testing.T) {
	m := model(t)
	opts := Options{Policy: PolicyClosed, PowerDownAfter: 16, SelfRefreshAfter: 400}
	long, err := GenerateAccesses(m, genOpts(100, 0, 3000))
	if err != nil {
		t.Fatal(err)
	}
	_, stats := schedule(t, m, long, opts)
	if stats.SelfRefreshes == 0 {
		t.Fatal("no self-refresh on a gap-3000 stream")
	}
	short, err := GenerateAccesses(m, genOpts(100, 0, 250))
	if err != nil {
		t.Fatal(err)
	}
	_, stats = schedule(t, m, short, opts)
	if stats.SelfRefreshes != 0 {
		t.Fatalf("gap-250 stream self-refreshed %d times (threshold 400)", stats.SelfRefreshes)
	}
	if stats.PowerDowns == 0 {
		t.Fatal("gap-250 stream never power-downed")
	}
}
