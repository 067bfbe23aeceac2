package trace

import (
	"math/rand"

	"drampower/internal/core"
	"drampower/internal/desc"
	"drampower/internal/timing"
)

// Workload generators: each produces a timing-legal command trace for the
// given model. They correspond to the traffic classes the paper's patterns
// abstract — streaming row hits (IDD4-like), random closed-page access
// (IDD7-like) and refresh-only standby.

// Streaming generates an open-page streaming workload: one activate per
// bank, then gapless bursts cycling through the open rows, with the given
// read share. It produces roughly `bursts` column commands.
func Streaming(m *core.Model, bursts int, readShare float64, seed int64) []Command {
	rng := rand.New(rand.NewSource(seed))
	t := timing.For(m.D.Spec)
	banks := m.D.Spec.Banks()
	tRCD, tRRD, tFAW, burst := t.RCD, t.RRD, t.FAW, t.Burst
	var cmds []Command

	// Open one row in every bank, spaced by the stricter of tRRD and
	// tFAW/4.
	gap := tRRD
	if tFAW > 0 && (tFAW+3)/4 > gap {
		gap = (tFAW + 3) / 4
	}
	slot := int64(0)
	for b := 0; b < banks; b++ {
		cmds = append(cmds, Command{Slot: slot, Op: desc.OpActivate, Bank: b, Row: 1})
		slot += gap
	}
	// Gapless bursts once the first rows are open.
	slot += tRCD
	for i := 0; i < bursts; i++ {
		op := desc.OpRead
		if rng.Float64() >= readShare {
			op = desc.OpWrite
		}
		cmds = append(cmds, Command{Slot: slot, Op: op, Bank: i % banks, Row: 1})
		slot += burst
	}
	return cmds
}

// RandomClosedPage generates a closed-page random-access workload: each
// access activates a random row in the next bank, bursts once and
// precharges — the traffic the IDD7 pattern idealizes. It produces
// `accesses` activate/burst/precharge triples.
func RandomClosedPage(m *core.Model, accesses int, readShare float64, seed int64) []Command {
	rng := rand.New(rand.NewSource(seed))
	t := timing.For(m.D.Spec)
	banks := m.D.Spec.Banks()
	tRC, tRCD, tRP, tRAS, tRRD, tFAW, burst := t.RC, t.RCD, t.RP, t.RAS, t.RRD, t.FAW, t.Burst

	// Activate spacing honoring tRRD, tFAW/4 and same-bank tRC over the
	// bank rotation. The tFAW term rounds up like Streaming's: floor would
	// squeeze four activates into less than the window whenever tFAW is
	// not a multiple of 4.
	group := tRRD
	if tFAW > 0 && (tFAW+3)/4 > group {
		group = (tFAW + 3) / 4
	}
	if banks > 0 {
		// Same-bank turnaround over the rotation: the next activate on a
		// bank must clear tRC and — when the burst drains past tRAS — the
		// delayed precharge plus tRP.
		cycle := max(tRC, tRCD+burst+tRP)
		if per := (cycle + int64(banks) - 1) / int64(banks); per > group {
			group = per
		}
	}
	if burst > group {
		group = burst
	}

	rows := 1 << uint(m.D.Spec.RowAddrBits)
	var cmds []Command
	for i := 0; i < accesses; i++ {
		base := int64(i) * group
		bank := i % banks
		row := rng.Intn(rows)
		op := desc.OpRead
		if rng.Float64() >= readShare {
			op = desc.OpWrite
		}
		colSlot := base + tRCD
		preSlot := base + tRAS
		// The precharge must wait for both tRAS and the burst to drain
		// (the simulator rejects a precharge that cuts off its own bank's
		// burst).
		if preSlot < colSlot+burst {
			preSlot = colSlot + burst
		}
		cmds = append(cmds, Command{Slot: base, Op: desc.OpActivate, Bank: bank, Row: row})
		cmds = append(cmds, Command{Slot: colSlot, Op: op, Bank: bank, Row: row})
		cmds = append(cmds, Command{Slot: preSlot, Op: desc.OpPrecharge, Bank: bank, Row: row})
	}
	return sortCommands(cmds)
}

// RefreshOnly generates the standby-with-refresh trace over the given
// number of refresh intervals. The spacing is the rulebook's tREFI,
// floored at tRFC: a spec whose refresh cycle is as long as (or longer
// than) its refresh interval would otherwise emit the next ref while the
// previous one is still in progress, which the simulator rejects.
func RefreshOnly(m *core.Model, intervals int) []Command {
	t := timing.For(m.D.Spec)
	perInterval := max(t.REFI, t.RFC)
	var cmds []Command
	for i := 0; i < intervals; i++ {
		cmds = append(cmds, Command{Slot: int64(i) * perInterval, Op: desc.OpRefresh})
	}
	return cmds
}

// WithPowerDown inserts power-down entry/exit pairs into the idle gaps of
// a sorted single-channel trace: whenever the gap before the next command
// is at least minIdle slots and leaves room for a legal pde ... pdx window
// (tCKEmin residency plus the tXP exit-to-valid delay before the next
// command), the device is put into precharge power-down for the gap. A
// candidate entry that is illegal at that slot (bank open, refresh or
// burst still in flight) is skipped, so the returned trace is always
// timing-legal; legality is enforced by actually issuing every command —
// original and inserted — on a scratch simulator. minIdle < 1 defaults to
// the smallest insertable window.
func WithPowerDown(m *core.Model, cmds []Command, minIdle int64) []Command {
	s := New(m)
	t := timing.For(m.D.Spec)
	if minIdle < 1 {
		minIdle = t.CKE + t.XP + 1
	}
	out := make([]Command, 0, len(cmds)+len(cmds)/2)
	emit := func(c Command) bool {
		if err := s.Issue(c); err != nil {
			return false
		}
		out = append(out, c)
		return true
	}
	for i, c := range cmds {
		if i > 0 {
			prev := cmds[i-1]
			// Earliest slot the device is quiet after the previous
			// command: past its refresh cycle or data burst, if any.
			enter := prev.Slot + 1
			switch prev.Op {
			case desc.OpRefresh:
				enter = prev.Slot + t.RFC
			case desc.OpRead, desc.OpWrite:
				enter = prev.Slot + t.Burst
			}
			exit := c.Slot - t.XP // pdx here makes c legal again
			if c.Slot-prev.Slot >= minIdle && exit-enter >= t.CKE {
				if emit(Command{Slot: enter, Op: OpPowerDownEnter}) {
					emit(Command{Slot: exit, Op: OpPowerDownExit})
				}
			}
		}
		if err := s.Issue(c); err != nil {
			// The input trace itself is illegal here; return what was
			// legal so far plus the remainder untouched (the caller's
			// replay will surface the violation exactly as without
			// insertion).
			return append(out, cmds[i:]...)
		}
		out = append(out, c)
	}
	return out
}

// sortCommands orders a trace by slot (stable for equal slots).
func sortCommands(cmds []Command) []Command {
	// Insertion sort: traces are generated nearly sorted.
	for i := 1; i < len(cmds); i++ {
		for j := i; j > 0 && cmds[j].Slot < cmds[j-1].Slot; j-- {
			cmds[j], cmds[j-1] = cmds[j-1], cmds[j]
		}
	}
	return cmds
}

// Evaluate runs a generated trace and returns its result, ending the
// accounting one group after the last command.
func Evaluate(m *core.Model, cmds []Command) (Result, error) {
	s := New(m)
	if err := s.Run(cmds); err != nil {
		return Result{}, err
	}
	end := s.Now() + int64(m.BurstSlots())
	return s.Result(end), nil
}
