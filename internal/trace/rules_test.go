package trace

import (
	"errors"
	"testing"

	"drampower/internal/core"
	"drampower/internal/desc"
)

// TestTwoRuleRejectionTexts pins the full rejection text of commands that
// break two rules at once: the text names the first rule in check order.
// Sample device: tRC 39, tRCD 11, tRP 11, tRAS 28, tRRD 6, tFAW 32,
// burst 4, tCKEmin 5, tXP 6.
//
// A pde cannot break two timing rules at once: a busy bus means the
// burst's bank is still open (its precharge waits for the burst), and
// refresh and low-power entry both need every bank closed. Its case pins
// the order of the open-bank state rule against the bus rule instead.
func TestTwoRuleRejectionTexts(t *testing.T) {
	m := model(t)
	act := func(slot int64, bank int) Command {
		return Command{Slot: slot, Op: desc.OpActivate, Bank: bank, Row: 1}
	}
	col := func(slot int64, op desc.Op, bank int) Command {
		return Command{Slot: slot, Op: op, Bank: bank, Row: 1}
	}
	pre := func(slot int64, bank int) Command {
		return Command{Slot: slot, Op: desc.OpPrecharge, Bank: bank}
	}
	op := func(slot int64, o desc.Op) Command { return Command{Slot: slot, Op: o} }
	for _, tc := range []struct {
		name string
		cmds []Command
		want string
	}{
		{"act tRC+tRP", []Command{act(0, 0), pre(30, 0), act(35, 0)},
			"trace: @35 act b0 r1: tRC: last activate at 0"},
		{"act tRRD+tFAW", []Command{act(0, 0), act(6, 1), act(12, 2), act(18, 3), act(20, 4)},
			"trace: @20 act b4 r1: tRRD: activate at 18"},
		{"act exit window+tRP", []Command{act(0, 0), pre(50, 0), op(51, OpPowerDownEnter), op(56, OpPowerDownExit), act(58, 0)},
			"trace: @58 act b0 r1: tXP: low-power exit not complete until slot 62"},
		{"rd tRCD+bus", []Command{act(0, 0), act(6, 1), col(11, desc.OpRead, 0), col(14, desc.OpRead, 1)},
			"trace: @14 rd b1 r1: tRCD: activate at 6"},
		{"wr tRCD+bus", []Command{act(0, 0), act(6, 1), col(11, desc.OpWrite, 0), col(14, desc.OpWrite, 1)},
			"trace: @14 wrt b1 r1: tRCD: activate at 6"},
		{"pre tRAS+own burst", []Command{act(0, 0), col(26, desc.OpRead, 0), pre(27, 0)},
			"trace: @27 pre b0 r0: tRAS: activate at 0"},
		{"pde open bank+bus", []Command{act(0, 0), col(11, desc.OpRead, 0), op(12, OpPowerDownEnter)},
			"trace: @12 pde b0 r0: 1 bank(s) open (precharge power-down/self-refresh require all banks closed)"},
		{"pdx tCKEmin", []Command{op(0, OpPowerDownEnter), op(4, OpPowerDownExit)},
			"trace: @4 pdx b0 r0: tCKEmin: power-down entered at 0, earliest exit 5"},
		{"srx tCKEmin", []Command{op(2, OpSelfRefreshEnter), op(6, OpSelfRefreshExit)},
			"trace: @6 srx b0 r0: tCKEmin: self-refresh entered at 2, earliest exit 7"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := New(m)
			last := len(tc.cmds) - 1
			if err := s.Run(tc.cmds[:last]); err != nil {
				t.Fatalf("prologue rejected: %v", err)
			}
			err := s.Issue(tc.cmds[last])
			var te *TimingError
			if !errors.As(err, &te) {
				t.Fatalf("got %v, want a *TimingError", err)
			}
			if err.Error() != tc.want {
				t.Errorf("got  %q\nwant %q", err, tc.want)
			}
		})
	}
}

// TestStateRuleBeforeExitWindow pins the check order: a command that
// breaks a state rule inside the tXP/tXS exit window is rejected for the
// state rule.
func TestStateRuleBeforeExitWindow(t *testing.T) {
	s := New(model(t))
	if err := s.Run([]Command{{Slot: 0, Op: OpPowerDownEnter}, {Slot: 5, Op: OpPowerDownExit}}); err != nil {
		t.Fatal(err)
	}
	err := s.Issue(Command{Slot: 6, Op: desc.OpRead, Bank: 0, Row: 1})
	if want := "trace: @6 rd b0 r1: bank not active"; err == nil || err.Error() != want {
		t.Errorf("got %v, want %q", err, want)
	}
}

// FuzzRulesTight checks that the rulebook is legal and tight. Fuzz bytes
// choose a stream of command kinds, three bytes per command: the kind,
// the bank and row, and a delay. Each command is placed at the later of
// its kind's query and the simulator's clock, plus the delay when the
// delay byte's top bits are set, and Issue must accept every placement.
// Whenever the query is later than the clock, the same command one slot
// before it must be rejected with a *TimingError, checked on a copy of
// the simulator. Refreshes and low-power windows first close every open
// bank, so that they occur in most streams.
func FuzzRulesTight(f *testing.F) {
	m, err := core.Build(desc.Sample1GbDDR3())
	if err != nil {
		f.Fatal(err)
	}
	f.Add([]byte{0, 0, 0, 0, 1, 0, 2, 0, 0, 2, 1, 0, 4, 0, 0, 5, 0, 0, 0, 2, 0xff})
	f.Add([]byte{0, 0, 0, 0, 9, 0, 0, 18, 0, 0, 27, 0, 0, 36, 0, 3, 4, 0, 6, 0, 0xc3, 0, 4, 0})
	f.Add([]byte{1, 5, 0, 1, 13, 0xd0, 7, 0, 0xff, 3, 5, 0, 6, 0, 0, 5, 0, 0xe0, 5, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		s := New(m)
		banks := s.r.Banks()
		place := func(c Command, query int64, delay byte) {
			t.Helper()
			if query > s.Now() {
				early := c
				early.Slot = query - 1
				cp := *s
				cp.r.banks = append([]bankRules(nil), s.r.banks...)
				var te *TimingError
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
		}
		closeAll := func() {
			for b := range banks {
				if _, open := s.r.Row(b); open {
					place(Command{Op: desc.OpPrecharge, Bank: b}, s.r.PrechargeAt(b), 0)
				}
			}
		}
		for i := 0; i+2 < len(data) && i < 3*4096; i += 3 {
			kind, bank, row, delay := data[i]%8, int(data[i+1])%banks, int(data[i+1]>>4)%4, data[i+2]
			openRow, isOpen := s.r.Row(bank)
			switch kind {
			case 0, 1: // activate, precharging a bank that is open
				if isOpen {
					place(Command{Op: desc.OpPrecharge, Bank: bank}, s.r.PrechargeAt(bank), delay)
				}
				place(Command{Op: desc.OpActivate, Bank: bank, Row: row}, s.r.ActivateAt(bank), delay)
			case 2, 3: // read or write, opening the row first
				if isOpen && openRow != row {
					place(Command{Op: desc.OpPrecharge, Bank: bank}, s.r.PrechargeAt(bank), 0)
					isOpen = false
				}
				if !isOpen {
					place(Command{Op: desc.OpActivate, Bank: bank, Row: row}, s.r.ActivateAt(bank), 0)
				}
				op := desc.OpRead
				if kind == 3 {
					op = desc.OpWrite
				}
				place(Command{Op: op, Bank: bank, Row: row}, s.r.ColumnAt(bank), delay)
			case 4: // precharge
				if isOpen {
					place(Command{Op: desc.OpPrecharge, Bank: bank}, s.r.PrechargeAt(bank), delay)
				}
			case 5: // refresh
				closeAll()
				place(Command{Op: desc.OpRefresh}, s.r.RefreshAt(), delay)
			case 6, 7: // power-down or self-refresh window
				closeAll()
				enter, exit := OpPowerDownEnter, OpPowerDownExit
				if kind == 7 {
					enter, exit = OpSelfRefreshEnter, OpSelfRefreshExit
				}
				place(Command{Op: enter}, s.r.LowPowerAt(), 0)
				place(Command{Op: exit}, s.r.exitBounds(), delay)
			}
		}
	})
}
