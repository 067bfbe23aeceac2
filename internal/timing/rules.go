package timing

// The rulebook. Each command kind lists its rules once, in an unexported
// bounds method that returns one earliest-legal slot per rule. A kind's
// query (its earliest legal slot) is the max of those bounds, and a
// rejection names the first bound, in the listed order, that the
// command's slot is below; the low-power exit window comes first in every
// list. The trace Simulator checks the state rules (CKE low, bank open or
// closed, the open row) before it asks the rulebook, so a command that
// breaks a state rule and a timing rule at once is rejected for the state
// rule.
//
// The bounds come back as multiple results, not as an array: Go keeps
// arrays in memory, and the queries run once per command on both the
// replay and the scheduling hot paths.

import (
	"fmt"
	"math"
)

// farPast is the slot of an event that never happened: adding any timing
// constant to it stays far before slot 0 without wrapping.
const farPast = math.MinInt64 / 2

// bankRules is one bank's rulebook state.
type bankRules struct {
	open     bool
	row      int
	act, pre int64 // slots of the last activate and precharge
}

// Rules holds one channel's timing state. Its queries (the *At methods)
// return a command kind's earliest legal slot and its commits record an
// issued command. Commits do not check: the caller commits only commands
// the state rules and the queries allow. Reset initializes a Rules.
type Rules struct {
	t     Timing
	banks []bankRules
	open  int // banks with an open row

	acts [4]int64 // the last four activate slots; acts[nact&3] is the oldest
	nact int      // activates committed

	busUntil  int64 // the data bus is free from this slot
	burstBank int   // bank whose burst holds the bus (-1 before any)
	refUntil  int64 // the last refresh completes at this slot
	lpEnter   int64 // slot of the last pde or sre
	exitUntil int64 // end of the low-power exit window
	exitSR    bool  // the window is tXS (after srx), not tXP (after pdx)

	// Retention epoch: obligation k is due at base + k*REFI; credit
	// counts the refreshes served since base, which is 0 or the slot of
	// the last srx.
	base, credit int64
}

// Reset makes r the rulebook of an idle channel with the given timing
// and bank count: every bank closed and no command in its history. It
// reuses r's bank slice when that is large enough.
func (r *Rules) Reset(t Timing, banks int) {
	b := r.banks[:0]
	if cap(b) < banks {
		b = make([]bankRules, banks)
	}
	*r = Rules{}
	r.t, r.banks, r.burstBank = t, b[:banks], -1
	r.busUntil, r.refUntil, r.lpEnter, r.exitUntil = farPast, farPast, farPast, farPast
	for i := range r.banks {
		r.banks[i] = bankRules{act: farPast, pre: farPast}
	}
	for i := range r.acts {
		r.acts[i] = farPast
	}
}

// Timing returns the timing constraints r enforces.
func (r *Rules) Timing() Timing { return r.t }

// Banks returns the bank count.
func (r *Rules) Banks() int { return len(r.banks) }

// Row reports the row open in bank, if any.
func (r *Rules) Row(bank int) (row int, open bool) {
	b := &r.banks[bank]
	return b.row, b.open
}

// OpenBanks returns the number of banks with an open row.
func (r *Rules) OpenBanks() int { return r.open }

// actBounds lists the activate rules: the exit window, tRC and tRP on
// the bank, the refresh cycle, tRRD against the most recent activate and
// tFAW against the fourth most recent. Activates commit in slot order,
// so no older activate can bind tighter.
func (r *Rules) actBounds(bank int) (exit, rc, rp, rfc, rrd, faw int64) {
	b := &r.banks[bank]
	i := r.nact & 3
	return r.exitUntil, b.act + r.t.RC, b.pre + r.t.RP, r.refUntil,
		r.acts[(i+3)&3] + r.t.RRD, r.acts[i] + r.t.FAW
}

// colBounds lists the read/write rules: the exit window, tRCD and the
// data bus.
func (r *Rules) colBounds(bank int) (exit, rcd, bus int64) {
	return r.exitUntil, r.banks[bank].act + r.t.RCD, r.busUntil
}

// preBounds lists the precharge rules: the exit window, tRAS, and the
// bank's own burst, which a precharge may not cut short. Another bank's
// burst does not bind: the bus is not this bank's.
func (r *Rules) preBounds(bank int) (exit, ras, burst int64) {
	burst = farPast
	if bank == r.burstBank {
		burst = r.busUntil
	}
	return r.exitUntil, r.banks[bank].act + r.t.RAS, burst
}

// refBounds lists the refresh rules: the exit window and the previous
// refresh cycle.
func (r *Rules) refBounds() (exit, rfc int64) { return r.exitUntil, r.refUntil }

// lowPowerBounds lists the pde/sre rules: the exit window, the refresh
// cycle and the data bus.
func (r *Rules) lowPowerBounds() (exit, rfc, bus int64) {
	return r.exitUntil, r.refUntil, r.busUntil
}

// ActivateAt returns the earliest slot an activate on bank is legal at.
func (r *Rules) ActivateAt(bank int) int64 {
	exit, rc, rp, rfc, rrd, faw := r.actBounds(bank)
	return max(exit, rc, rp, rfc, rrd, faw)
}

// ColumnAt returns the earliest slot a read or write on bank is legal at.
func (r *Rules) ColumnAt(bank int) int64 {
	exit, rcd, bus := r.colBounds(bank)
	return max(exit, rcd, bus)
}

// PrechargeAt returns the earliest slot a precharge of bank is legal at.
func (r *Rules) PrechargeAt(bank int) int64 {
	exit, ras, burst := r.preBounds(bank)
	return max(exit, ras, burst)
}

// RefreshAt returns the earliest slot a refresh is legal at.
func (r *Rules) RefreshAt() int64 {
	exit, rfc := r.refBounds()
	return max(exit, rfc)
}

// LowPowerAt returns the earliest slot a power-down or self-refresh
// entry is legal at: the slot the channel falls quiet.
func (r *Rules) LowPowerAt() int64 {
	exit, rfc, bus := r.lowPowerBounds()
	return max(exit, rfc, bus)
}

// ExitAt returns the earliest slot a pdx or srx is legal at: tCKEmin
// after the entry, its one rule.
func (r *Rules) ExitAt() int64 { return r.lpEnter + r.t.CKE }

// Activate records an activate of row in bank at slot.
func (r *Rules) Activate(bank, row int, slot int64) {
	b := &r.banks[bank]
	b.open, b.row, b.act = true, row, slot
	r.acts[r.nact&3] = slot
	r.nact++
	r.open++
}

// Column records a read or write on bank at slot.
func (r *Rules) Column(bank int, slot int64) {
	r.busUntil, r.burstBank = slot+r.t.Burst, bank
}

// Precharge records a precharge of bank at slot.
func (r *Rules) Precharge(bank int, slot int64) {
	b := &r.banks[bank]
	b.open, b.pre = false, slot
	r.open--
}

// Refresh records a refresh at slot, serving the next obligation.
func (r *Rules) Refresh(slot int64) {
	r.refUntil = slot + r.t.RFC
	r.credit++
}

// EnterLowPower records a pde or sre at slot.
func (r *Rules) EnterLowPower(slot int64) { r.lpEnter = slot }

// ExitPowerDown records a pdx at slot: tXP follows.
func (r *Rules) ExitPowerDown(slot int64) {
	r.exitUntil, r.exitSR = slot+r.t.XP, false
}

// ExitSelfRefresh records an srx at slot: tXS follows, and a new
// retention epoch starts, because the device refreshed itself.
func (r *Rules) ExitSelfRefresh(slot int64) {
	r.exitUntil, r.exitSR = slot+r.t.XS, true
	r.base, r.credit = slot, 0
}

// Due returns the nominal slot of the next unserved refresh obligation.
func (r *Rules) Due() int64 { return r.base + (r.credit+1)*r.t.REFI }

// Deadline returns the latest slot the next unserved refresh obligation
// may be served at when up to post obligations may be postponed.
func (r *Rules) Deadline(post int64) int64 {
	return r.base + (r.credit+1+post)*r.t.REFI
}

// Overdue returns how many unserved obligations have deadlines at or
// before slot x under a postponement bound of post (negative when none).
func (r *Rules) Overdue(x, post int64) int64 {
	return (x-r.base)/r.t.REFI - post - r.credit
}

// Kind is a class of command as the rulebook sees it: the kinds that
// share a bounds method share a Kind, and the two exits differ only in
// the text of their rejection.
type Kind uint8

// The command kinds.
const (
	Activate        Kind = iota // act
	Column                      // rd, wrt
	Precharge                   // pre
	Refresh                     // ref
	LowPowerEntry               // pde, sre
	PowerDownExit               // pdx
	SelfRefreshExit             // srx
)

// Why names the first rule, in its kind's bounds order, that a command of
// kind k on bank at slot at breaks, for a slot below its kind's query.
// Only rejections call it, so only a rejection formats text.
func (r *Rules) Why(k Kind, bank int, at int64) string {
	switch k {
	case Activate:
		exit, rc, rp, rfc, rrd, faw := r.actBounds(bank)
		switch {
		case at < exit:
			return r.exitWhy()
		case at < rc:
			return fmt.Sprintf("tRC: last activate at %d", rc-r.t.RC)
		case at < rp:
			return fmt.Sprintf("tRP: precharge at %d not complete", rp-r.t.RP)
		case at < rfc:
			return "tRFC: refresh in progress"
		case at < rrd:
			return fmt.Sprintf("tRRD: activate at %d", rrd-r.t.RRD)
		default:
			return fmt.Sprintf("tFAW: fourth activate at %d", faw-r.t.FAW)
		}
	case Column:
		exit, rcd, bus := r.colBounds(bank)
		switch {
		case at < exit:
			return r.exitWhy()
		case at < rcd:
			return fmt.Sprintf("tRCD: activate at %d", rcd-r.t.RCD)
		default:
			return fmt.Sprintf("data bus busy until slot %d", bus)
		}
	case Precharge:
		exit, ras, burst := r.preBounds(bank)
		switch {
		case at < exit:
			return r.exitWhy()
		case at < ras:
			return fmt.Sprintf("tRAS: activate at %d", ras-r.t.RAS)
		default:
			return fmt.Sprintf("burst on bank %d drains until slot %d", bank, burst)
		}
	case Refresh:
		if exit, _ := r.refBounds(); at < exit {
			return r.exitWhy()
		}
		return "tRFC: previous refresh in progress"
	case LowPowerEntry:
		exit, rfc, bus := r.lowPowerBounds()
		switch {
		case at < exit:
			return r.exitWhy()
		case at < rfc:
			return "tRFC: refresh in progress"
		default:
			return fmt.Sprintf("data bus busy until slot %d", bus)
		}
	case SelfRefreshExit:
		return fmt.Sprintf("tCKEmin: self-refresh entered at %d, earliest exit %d", r.lpEnter, r.ExitAt())
	default:
		return fmt.Sprintf("tCKEmin: power-down entered at %d, earliest exit %d", r.lpEnter, r.ExitAt())
	}
}

func (r *Rules) exitWhy() string {
	rule := "tXP"
	if r.exitSR {
		rule = "tXS"
	}
	return fmt.Sprintf("%s: low-power exit not complete until slot %d", rule, r.exitUntil)
}
