package timing_test

import (
	"errors"
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
// every open bank, so that they occur in most streams.
func FuzzRulesTight(f *testing.F) {
	m, err := core.Build(desc.Sample1GbDDR3())
	if err != nil {
		f.Fatal(err)
	}
	f.Add([]byte{0, 0, 0, 0, 1, 0, 2, 0, 0, 2, 1, 0, 4, 0, 0, 5, 0, 0, 0, 2, 0xff})
	f.Add([]byte{0, 0, 0, 0, 9, 0, 0, 18, 0, 0, 27, 0, 0, 36, 0, 3, 4, 0, 6, 0, 0xc3, 0, 4, 0})
	f.Add([]byte{1, 5, 0, 1, 13, 0xd0, 7, 0, 0xff, 3, 5, 0, 6, 0, 0, 5, 0, 0xe0, 5, 0, 0})
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
				place(trace.Command{Op: exit}, r.ExitAt(), delay)
			}
		}
	})
}
