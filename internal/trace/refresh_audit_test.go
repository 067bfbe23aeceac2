package trace

import (
	"strings"
	"testing"

	"drampower/internal/core"
	"drampower/internal/desc"
	"drampower/internal/timing"
	"drampower/internal/units"
)

// TestRefreshRejectedWhileCKELow pins the CKE gating: ref is a CKE-high
// command, illegal inside both low-power states.
func TestRefreshRejectedWhileCKELow(t *testing.T) {
	m := model(t)
	for _, tc := range []struct {
		name  string
		enter desc.Op
	}{
		{"power-down", OpPowerDownEnter},
		{"self-refresh", OpSelfRefreshEnter},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := New(m)
			if err := s.Issue(Command{Slot: 0, Op: tc.enter}); err != nil {
				t.Fatal(err)
			}
			err := s.Issue(Command{Slot: 10, Op: desc.OpRefresh})
			if err == nil || !strings.Contains(err.Error(), "state") {
				t.Fatalf("ref accepted with CKE low: %v", err)
			}
		})
	}
}

// TestRetentionAuditCounts exercises the auditor's three Result fields on
// hand-built traces with known obligation arithmetic.
func TestRetentionAuditCounts(t *testing.T) {
	m := model(t)
	refi := timing.For(m.D.Spec).REFI
	if refi <= 0 {
		t.Fatal("sample spec lost its refresh interval")
	}

	t.Run("clean", func(t *testing.T) {
		// One refresh per interval, on time: no misses, max gap == tREFI.
		s := New(m)
		for k := int64(1); k <= 5; k++ {
			if err := s.Issue(Command{Slot: k * refi, Op: desc.OpRefresh}); err != nil {
				t.Fatal(err)
			}
		}
		res := s.Result(5*refi + 1)
		if res.Refreshes != 5 || res.MissedRefreshDeadlines != 0 {
			t.Fatalf("refreshes %d missed %d, want 5 and 0", res.Refreshes, res.MissedRefreshDeadlines)
		}
		if res.MaxRefreshInterval != refi {
			t.Fatalf("max interval %d, want %d", res.MaxRefreshInterval, refi)
		}
	})

	t.Run("late-refresh-misses", func(t *testing.T) {
		// A lone refresh one slot past obligation 1's deadline of
		// (1+8)*tREFI: exactly one miss, recorded at issue time.
		s := New(m)
		late := 9*refi + 1
		if err := s.Issue(Command{Slot: late, Op: desc.OpRefresh}); err != nil {
			t.Fatal(err)
		}
		res := s.Result(late + 1)
		if res.Refreshes != 1 || res.MissedRefreshDeadlines != 1 {
			t.Fatalf("refreshes %d missed %d, want 1 and 1", res.Refreshes, res.MissedRefreshDeadlines)
		}
		if res.MaxRefreshInterval != late {
			t.Fatalf("max interval %d, want %d", res.MaxRefreshInterval, late)
		}
	})

	t.Run("idle-tail-misses", func(t *testing.T) {
		// No refreshes at all over 10*tREFI: obligations 1 and 2 have
		// deadlines 9*tREFI and 10*tREFI inside the trace.
		s := New(m)
		res := s.Result(10 * refi)
		if res.Refreshes != 0 || res.MissedRefreshDeadlines != 2 {
			t.Fatalf("refreshes %d missed %d, want 0 and 2", res.Refreshes, res.MissedRefreshDeadlines)
		}
	})

	t.Run("self-refresh-resets-epoch", func(t *testing.T) {
		// Self-refresh covers the array internally: a span parked in sre
		// needs no ref commands, and the epoch restarts at srx.
		s := New(m)
		if err := s.Issue(Command{Slot: 0, Op: OpSelfRefreshEnter}); err != nil {
			t.Fatal(err)
		}
		if err := s.Issue(Command{Slot: 5 * refi, Op: OpSelfRefreshExit}); err != nil {
			t.Fatal(err)
		}
		if res := s.Result(12 * refi); res.MissedRefreshDeadlines != 0 {
			t.Fatalf("missed %d deadlines across a self-refresh span", res.MissedRefreshDeadlines)
		}
	})

	t.Run("late-self-refresh-entry-misses", func(t *testing.T) {
		// Entering self-refresh does not forgive deadlines that had
		// already passed unserved before the entry.
		s := New(m)
		if err := s.Issue(Command{Slot: 10 * refi, Op: OpSelfRefreshEnter}); err != nil {
			t.Fatal(err)
		}
		if res := s.Result(10*refi + 100); res.MissedRefreshDeadlines != 1 {
			t.Fatalf("missed %d, want 1 (obligation 1's deadline passed before sre)", res.MissedRefreshDeadlines)
		}
	})
}

// TestRandomClosedPageOddTFAW is the satellite-1 regression: with a tFAW
// that is not a multiple of four slots, the generator's per-window
// activate spacing must round up, not down — the floor division used to
// emit a fourth activate one slot inside the window.
func TestRandomClosedPageOddTFAW(t *testing.T) {
	d := desc.Sample1GbDDR3()
	d.Spec.FourBankWindow = units.Nanoseconds(37.5) // 30 slots at 800 MHz: 30/4 floors to 7
	m, err := core.Build(d)
	if err != nil {
		t.Fatal(err)
	}
	s := New(m)
	tFAW := timing.For(m.D.Spec).FAW
	if tFAW%4 == 0 {
		t.Fatalf("tFAW resolved to %d slots — pick a spec value that exercises the rounding", tFAW)
	}
	cmds := RandomClosedPage(m, 400, 0.5, 3)
	if err := s.Run(cmds); err != nil {
		t.Fatalf("closed-page workload illegal under odd tFAW: %v", err)
	}
}

// TestRefreshOnlyTightInterval is the satellite-2 regression: a spec
// whose refresh interval is shorter than its refresh cycle (possible on
// high-density parts) must space the standby-refresh workload by tRFC,
// not tREFI.
func TestRefreshOnlyTightInterval(t *testing.T) {
	d := desc.Sample1GbDDR3()
	d.Spec.RefreshInterval = units.Nanoseconds(100) // 80 slots, below tRFC's 88
	m, err := core.Build(d)
	if err != nil {
		t.Fatal(err)
	}
	s := New(m)
	if tm := timing.For(m.D.Spec); tm.REFI >= tm.RFC {
		t.Fatalf("tREFI %d not below tRFC %d — spec no longer exercises the clamp",
			tm.REFI, tm.RFC)
	}
	cmds := RefreshOnly(m, 20)
	if err := s.Run(cmds); err != nil {
		t.Fatalf("refresh-only workload illegal under tREFI < tRFC: %v", err)
	}
	if got := s.Result(s.Now() + 1).Refreshes; got < 20 {
		t.Fatalf("workload carried %d refreshes, want >= 20", got)
	}
}
