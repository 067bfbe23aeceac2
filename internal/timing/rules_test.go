package timing_test

import (
	"errors"
	"fmt"
	"testing"

	"drampower/internal/core"
	"drampower/internal/desc"
	"drampower/internal/timing"
	"drampower/internal/trace"
)

// commit records an issued command in r, the way a placer does.
func commit(r *timing.Rules, c trace.Command) {
	switch c.Op {
	case desc.OpActivate:
		r.Activate(c.Bank, c.Row, c.Slot)
	case desc.OpRead, desc.OpWrite:
		r.Column(c.Bank, c.Slot)
	case desc.OpPrecharge:
		r.Precharge(c.Bank, c.Slot)
	case desc.OpRefresh:
		r.Refresh(c.Slot)
	case trace.OpPowerDownEnter, trace.OpSelfRefreshEnter:
		r.EnterLowPower(c.Slot)
	case trace.OpPowerDownExit:
		r.ExitPowerDown(c.Slot)
	case trace.OpSelfRefreshExit:
		r.ExitSelfRefresh(c.Slot)
	}
}

// FuzzRulesTight checks that the rulebook is legal and tight against the
// trace Simulator. Fuzz bytes choose a stream of command kinds, three
// bytes per command: the kind, the bank and row, and a delay. A Rules
// that sees every issued command answers the queries: each command is
// placed at the later of its kind's query and the simulator's clock, plus
// the delay when the delay byte's top bits are set, and Issue must accept
// every placement. Whenever the query is later than the clock, the same
// command one slot before it must be rejected with a *TimingError, checked
// on a copy of the simulator (a rejection leaves the state it shares with
// the original unchanged). Refreshes and low-power windows first close
// every open bank, so that they occur in most streams. A low-power window
// is sized by LowPowerExit for an activate the delay byte places after
// the entry (see lowPowerWindow).
func FuzzRulesTight(f *testing.F) {
	m, err := core.Build(desc.Sample1GbDDR3())
	if err != nil {
		f.Fatal(err)
	}
	f.Add([]byte{0, 0, 0, 0, 1, 0, 2, 0, 0, 2, 1, 0, 4, 0, 0, 5, 0, 0, 0, 2, 0xff})
	f.Add([]byte{0, 0, 0, 0, 9, 0, 0, 18, 0, 0, 27, 0, 0, 36, 0, 3, 4, 0, 6, 0, 0xc3, 0, 4, 0})
	f.Add([]byte{1, 5, 0, 1, 13, 0xd0, 7, 0, 0xff, 3, 5, 0, 6, 0, 0, 5, 0, 0xe0, 5, 0, 0})
	// An activate, then a low-power window whose next activate puts the
	// exit on the sample exactly tCKEmin after the entry (power-down and
	// self-refresh), and one slot short of it.
	f.Add([]byte{0, 0x30, 0, 6, 0x30, 4})
	f.Add([]byte{0, 0x30, 0, 7, 0x30, 104})
	f.Add([]byte{0, 0x30, 0, 6, 0x31, 10})
	f.Fuzz(func(t *testing.T, data []byte) {
		s := trace.New(m)
		var r timing.Rules
		r.Reset(timing.For(m.D.Spec), m.D.Spec.Banks())
		banks := r.Banks()
		place := func(c trace.Command, query int64, delay byte) {
			t.Helper()
			if query > s.Now() {
				early := c
				early.Slot = query - 1
				cp := *s
				var te *trace.TimingError
				if err := cp.Issue(early); !errors.As(err, &te) {
					t.Fatalf("%v one slot before its earliest legal slot: got %v, want a *TimingError", early, err)
				}
			}
			c.Slot = max(query, s.Now())
			if delay >= 0xc0 {
				c.Slot += int64(delay&0x3f) * int64(delay&0x3f)
			}
			if err := s.Issue(c); err != nil {
				t.Fatalf("placed at its earliest legal slot, rejected: %v", err)
			}
			commit(&r, c)
		}
		closeAll := func() {
			for b := range banks {
				if _, open := r.Row(b); open {
					place(trace.Command{Op: desc.OpPrecharge, Bank: b}, r.PrechargeAt(b), 0)
				}
			}
		}
		for i := 0; i+2 < len(data) && i < 3*4096; i += 3 {
			kind, bank, row, delay := data[i]%8, int(data[i+1])%banks, int(data[i+1]>>4)%4, data[i+2]
			openRow, isOpen := r.Row(bank)
			switch kind {
			case 0, 1: // activate, precharging a bank that is open
				if isOpen {
					place(trace.Command{Op: desc.OpPrecharge, Bank: bank}, r.PrechargeAt(bank), delay)
				}
				place(trace.Command{Op: desc.OpActivate, Bank: bank, Row: row}, r.ActivateAt(bank), delay)
			case 2, 3: // read or write, opening the row first
				if isOpen && openRow != row {
					place(trace.Command{Op: desc.OpPrecharge, Bank: bank}, r.PrechargeAt(bank), 0)
					isOpen = false
				}
				if !isOpen {
					place(trace.Command{Op: desc.OpActivate, Bank: bank, Row: row}, r.ActivateAt(bank), 0)
				}
				op := desc.OpRead
				if kind == 3 {
					op = desc.OpWrite
				}
				place(trace.Command{Op: op, Bank: bank, Row: row}, r.ColumnAt(bank), delay)
			case 4: // precharge
				if isOpen {
					place(trace.Command{Op: desc.OpPrecharge, Bank: bank}, r.PrechargeAt(bank), delay)
				}
			case 5: // refresh
				closeAll()
				place(trace.Command{Op: desc.OpRefresh}, r.RefreshAt(), delay)
			case 6, 7: // power-down or self-refresh window
				closeAll()
				enter, exit := trace.OpPowerDownEnter, trace.OpPowerDownExit
				if kind == 7 {
					enter, exit = trace.OpSelfRefreshEnter, trace.OpSelfRefreshExit
				}
				place(trace.Command{Op: enter}, r.LowPowerAt(), 0)
				lowPowerWindow(t, s, &r, exit, trace.Command{Op: desc.OpActivate, Bank: bank, Row: row}, int64(delay))
			}
		}
	})
}

// lowPowerWindow ends the low-power window the simulator is in where
// LowPowerExit places it for the command next, due delay slots after the
// entry or at its earliest legal slot if that is later. The exit must
// issue exactly when the query reports that the window fits; then next
// must issue at its slot, and must be rejected when the exit comes one
// slot later. A window that does not fit ends at ExitAt instead, and next
// is not issued.
func lowPowerWindow(t *testing.T, s *trace.Simulator, r *timing.Rules, exitOp desc.Op, next trace.Command, delay int64) {
	t.Helper()
	next.Slot = max(s.Now()+delay, r.ActivateAt(next.Bank))
	at, ok := r.LowPowerExit(s.Now(), next.Slot, exitOp == trace.OpSelfRefreshExit)
	exit := trace.Command{Slot: at, Op: exitOp}
	cp := *s
	if err := cp.Issue(exit); (err == nil) != ok {
		t.Fatalf("LowPowerExit(%d, %d) = %d, %v, but issuing %v: %v", s.Now(), next.Slot, at, ok, exit, err)
	}
	if !ok {
		exit.Slot = r.ExitAt()
		if err := s.Issue(exit); err != nil {
			t.Fatalf("exit at its earliest legal slot, rejected: %v", err)
		}
		commit(r, exit)
		return
	}
	late := *s
	exit.Slot++
	var te *trace.TimingError
	if err := late.Issue(exit); err != nil {
		t.Fatalf("exit one slot after LowPowerExit's, rejected: %v", err)
	}
	if err := late.Issue(next); !errors.As(err, &te) {
		t.Fatalf("%v after an exit one slot late: got %v, want a *TimingError", next, err)
	}
	exit.Slot--
	for _, c := range []trace.Command{exit, next} {
		if err := s.Issue(c); err != nil {
			t.Fatalf("window sized by LowPowerExit: %v", err)
		}
		commit(r, c)
	}
}

// TestRefreshWaitsForPrecharge: a refresh needs every bank precharged,
// not merely closed, so tRP after the last precharge bounds it as tRFC
// after a refresh does, and only a precharge does. The rulebook and the
// Simulator agree on each case, and a rejection names the rule.
func TestRefreshWaitsForPrecharge(t *testing.T) {
	m, err := core.Build(desc.Sample1GbDDR3())
	if err != nil {
		t.Fatal(err)
	}
	tm := timing.For(m.D.Spec)
	act := func(bank int, at int64) trace.Command {
		return trace.Command{Slot: at, Op: desc.OpActivate, Bank: bank, Row: 1}
	}
	pre := func(bank int, at int64) trace.Command {
		return trace.Command{Slot: at, Op: desc.OpPrecharge, Bank: bank}
	}
	twoBanks := []trace.Command{act(0, 0), act(1, tm.RRD), pre(0, tm.RAS), pre(1, tm.RRD+tm.RAS)}
	for _, tc := range []struct {
		name    string
		history []trace.Command
		at      int64
		why     string // "" when the refresh is legal at at
	}{
		{"idle channel", nil, 0, ""},
		{"one slot inside tRP", []trace.Command{act(0, 0), pre(0, 28)}, 28 + tm.RP - 1, "tRP: precharge at 28 not complete"},
		{"tRP complete", []trace.Command{act(0, 0), pre(0, 28)}, 28 + tm.RP, ""},
		{"the last precharge binds", twoBanks, tm.RRD + tm.RAS + tm.RP - 1,
			fmt.Sprintf("tRP: precharge at %d not complete", tm.RRD+tm.RAS)},
		{"after the last precharge", twoBanks, tm.RRD + tm.RAS + tm.RP, ""},
		{"a refresh binds by tRFC, not tRP", []trace.Command{{Op: desc.OpRefresh}}, tm.RFC - 1, "tRFC: previous refresh in progress"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := trace.New(m)
			var r timing.Rules
			r.Reset(tm, m.D.Spec.Banks())
			for _, c := range tc.history {
				if err := s.Issue(c); err != nil {
					t.Fatal(err)
				}
				commit(&r, c)
			}
			ref := trace.Command{Slot: tc.at, Op: desc.OpRefresh}
			err := s.Issue(ref)
			if tc.why == "" {
				if err != nil || r.RefreshAt() > tc.at {
					t.Fatalf("refresh at %d: %v, RefreshAt %d; want legal", tc.at, err, r.RefreshAt())
				}
				return
			}
			if want := fmt.Sprintf("trace: %v: %s", ref, tc.why); err == nil || err.Error() != want {
				t.Fatalf("refresh at %d: got %v, want %s", tc.at, err, want)
			}
			if why := r.Why(timing.Refresh, 0, tc.at); r.RefreshAt() <= tc.at || why != tc.why {
				t.Errorf("RefreshAt %d, Why %q; want a later slot and %q", r.RefreshAt(), why, tc.why)
			}
		})
	}
}
