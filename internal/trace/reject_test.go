package trace

import (
	"errors"
	"testing"

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
