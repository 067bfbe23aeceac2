// Package trace implements a cycle-accounted DRAM command-trace simulator
// on top of the power engine: a bank state machine that enforces the JEDEC
// timing constraints (tRC, tRCD, tRP, tRAS, tRRD, tFAW, tRFC and data-bus
// occupancy, checked by the rulebook of package timing) and integrates the
// per-command charges of package core over the trace. It is the substrate
// that makes the paper's operating patterns (Section III.B.4) well
// defined: package core places the canned IDD loops with the same
// rulebook, so every loop replays clean here and costs per period what
// the pattern evaluation reports (TestIDDLoopsReplayClean), and arbitrary
// workloads (streaming, random closed-page, mixed) can be evaluated the
// same way.
package trace

import (
	"fmt"

	"drampower/internal/core"
	"drampower/internal/desc"
	"drampower/internal/timing"
	"drampower/internal/units"
)

// Command is one trace entry: an operation issued to a bank at a slot
// (control-clock cycle).
type Command struct {
	Slot int64
	Op   desc.Op
	Bank int
	Row  int
}

// String renders the command compactly.
func (c Command) String() string {
	return fmt.Sprintf("@%d %s b%d r%d", c.Slot, OpName(c.Op), c.Bank, c.Row)
}

// TimingError reports a constraint violation.
type TimingError struct {
	Cmd    Command
	Reason string
}

// Error implements the error interface.
func (e *TimingError) Error() string {
	return fmt.Sprintf("trace: %v: %s", e.Cmd, e.Reason)
}

// MaxPostponedRefreshes is the JEDEC all-bank refresh postponement bound:
// a controller may defer up to 8 refresh commands while traffic is in
// flight, so the k-th refresh obligation (nominally due at k*tREFI) must
// complete by (k+8)*tREFI. The retention auditor flags refreshes that
// land past that deadline, and the controller in internal/ctl uses it as
// the default for Options.MaxPostponed.
const MaxPostponedRefreshes = 8

// Simulator executes a command trace against a model, enforcing timing and
// accumulating energy. The Issue hot path is allocation-free: the timing
// state is the Rules rulebook's fixed fields and per-bank slice, per-op
// counters and energies live in fixed [numTraceOps] arrays and the
// per-state residency in a fixed [NumStates] array (see
// TestIssueZeroAllocs).
type Simulator struct {
	m   *core.Model
	r   timing.Rules
	now int64

	// Retention auditor: refresh coverage against the spec's tREFI, over
	// the rulebook's retention epoch. The audit is report-only — it never
	// rejects a command — so traces that predate refresh scheduling
	// replay with identical energy totals and merely report their missed
	// deadlines in Result. A tREFI of 0 (no RefreshInterval in the spec)
	// disables the audit entirely.
	refCount    int64 // refreshes issued over the whole trace
	lastRefSlot int64 // slot of the last refresh (or epoch origin)
	maxRefGap   int64 // widest observed refresh-to-refresh gap
	refMissed   int64 // obligations served or abandoned past their deadline

	// Power-state machine: the current background state, when it began,
	// and the per-state slot residency accumulated at every transition.
	state      State
	stateSince int64
	stateSlots [NumStates]int64

	counts     [numTraceOps]int64
	opEnergy   [numTraceOps]float64 // per-op energy, hoisted from the model at New
	statePower [NumStates]float64   // per-state background power (W), hoisted at New
	cmdEnergy  float64              // accumulated command energy (J)
	bits       int64
}

// New creates a simulator for the model.
func New(m *core.Model) *Simulator {
	s := &Simulator{m: m, state: StatePrecharged}
	s.r.Reset(timing.For(m.D.Spec), m.D.Spec.Banks())
	for op, e := range m.OpEnergies() {
		s.opEnergy[op] = float64(e)
	}
	// Power-state entry/exit commands carry no charge events of their own
	// (CKE is a control pin); their energy effect is entirely the
	// background-state change, so their opEnergy slots stay zero.
	// Resolved background power, not the derived itemized ledger: a
	// calibration overlay that pins standby must move the residency
	// accounting with it.
	s.statePower[StateActive] = float64(m.BackgroundPower())
	s.statePower[StatePrecharged] = float64(m.BackgroundPower())
	s.statePower[StatePowerDown] = float64(m.PowerDownPower())
	s.statePower[StateSelfRefresh] = float64(m.SelfRefreshPower())
	return s
}

// setState closes the residency of the current background state at slot
// and enters the next one. Allocation-free (called on the Issue hot path).
func (s *Simulator) setState(st State, slot int64) {
	s.stateSlots[s.state] += slot - s.stateSince
	s.state = st
	s.stateSince = slot
}

// Now returns the current slot (the latest issue or advance time).
func (s *Simulator) Now() int64 { return s.now }

// Issue validates and executes one command. Commands must arrive in
// non-decreasing slot order. On a timing violation the command is rejected
// with a *TimingError and the simulator state is unchanged. Issue checks
// the state rules (CKE low, bank open or closed, the open row) itself and
// the timing rules through the timing.Rules rulebook, state rules first.
//
// Data-bus contention gates only column commands: at a slot where a
// previous burst still occupies the data bus (slot < busUntil),
//
//   - OpRead and OpWrite are rejected ("data bus busy"),
//   - OpActivate, OpPrecharge, OpRefresh and OpNop issue normally — they
//     travel on the command/address bus, which the model treats as
//     uncontended, and never touch the data bus. The one exception is a
//     precharge aimed at the bank whose own burst is still draining: that
//     would cut the burst short, so it is rejected until busUntil.
//
// These semantics are pinned by TestIssueAtContendedBusSlot. The accept
// path performs no heap allocations; only a rejection allocates (for its
// *TimingError).
//
// Power-state commands (OpPowerDownEnter/Exit, OpSelfRefreshEnter/Exit)
// drive the background-state machine: entry requires all banks closed, no
// refresh in progress and no burst in flight; exit is legal tCKEmin slots
// after entry; and row/column/refresh commands stay illegal until tXP
// (after pdx) or tXS (after srx) has elapsed. Bank and Row are ignored on
// these commands (CKE is a rank-wide pin).
func (s *Simulator) Issue(c Command) error {
	if c.Slot < s.now {
		return &TimingError{c, fmt.Sprintf("out of order (now at slot %d)", s.now)}
	}
	r := &s.r
	if c.Bank < 0 || c.Bank >= r.Banks() {
		return &TimingError{c, fmt.Sprintf("bank %d outside 0..%d", c.Bank, r.Banks()-1)}
	}
	// Row, column and refresh commands need CKE high.
	if s.state.lowPower() && c.Op != desc.OpNop && c.Op.Valid() {
		return &TimingError{c, "device in " + s.state.String() + " state"}
	}
	row, open := r.Row(c.Bank)
	switch c.Op {
	case desc.OpActivate:
		if open {
			return &TimingError{c, "bank already active"}
		}
		if c.Slot < r.ActivateAt(c.Bank) {
			return &TimingError{c, r.Why(timing.Activate, c.Bank, c.Slot)}
		}
		r.Activate(c.Bank, c.Row, c.Slot)
		if r.OpenBanks() == 1 {
			s.setState(StateActive, c.Slot)
		}
	case desc.OpRead, desc.OpWrite:
		if !open {
			return &TimingError{c, "bank not active"}
		}
		if row != c.Row {
			return &TimingError{c, fmt.Sprintf("row %d open, access to row %d", row, c.Row)}
		}
		if c.Slot < r.ColumnAt(c.Bank) {
			return &TimingError{c, r.Why(timing.Column, c.Bank, c.Slot)}
		}
		r.Column(c.Bank, c.Slot)
		s.bits += int64(s.m.BitsPerBurst())
	case desc.OpPrecharge:
		if !open {
			return &TimingError{c, "bank not active"}
		}
		if c.Slot < r.PrechargeAt(c.Bank) {
			return &TimingError{c, r.Why(timing.Precharge, c.Bank, c.Slot)}
		}
		r.Precharge(c.Bank, c.Slot)
		if r.OpenBanks() == 0 {
			s.setState(StatePrecharged, c.Slot)
		}
	case desc.OpRefresh:
		for i := range r.Banks() {
			if _, open := r.Row(i); open {
				return &TimingError{c, fmt.Sprintf("bank %d active at refresh", i)}
			}
		}
		if c.Slot < r.RefreshAt() {
			return &TimingError{c, r.Why(timing.Refresh, c.Bank, c.Slot)}
		}
		// Retention audit: this refresh serves the epoch's next
		// obligation; landing past that obligation's postponement
		// deadline is a miss. Pure integer bookkeeping — no allocation.
		if r.Timing().REFI > 0 {
			if g := c.Slot - s.lastRefSlot; g > s.maxRefGap {
				s.maxRefGap = g
			}
			if c.Slot > r.Deadline(MaxPostponedRefreshes) {
				s.refMissed++
			}
			s.refCount++
			s.lastRefSlot = c.Slot
		}
		r.Refresh(c.Slot)
	case OpPowerDownEnter, OpSelfRefreshEnter:
		if s.state.lowPower() {
			return &TimingError{c, "already in " + s.state.String() + " state"}
		}
		if n := r.OpenBanks(); n > 0 {
			return &TimingError{c, fmt.Sprintf("%d bank(s) open (precharge power-down/self-refresh require all banks closed)", n)}
		}
		if c.Slot < r.LowPowerAt() {
			return &TimingError{c, r.Why(timing.LowPowerEntry, c.Bank, c.Slot)}
		}
		st := StatePowerDown
		if c.Op == OpSelfRefreshEnter {
			st = StateSelfRefresh
			// Self-refresh covers retention internally: close the audit
			// epoch here. Obligations whose deadlines had already passed
			// unserved are missed; everything not yet due is forgiven.
			if r.Timing().REFI > 0 {
				if g := c.Slot - s.lastRefSlot; g > s.maxRefGap {
					s.maxRefGap = g
				}
				if m := r.Overdue(c.Slot-1, MaxPostponedRefreshes); m > 0 {
					s.refMissed += m
				}
			}
		}
		s.setState(st, c.Slot)
		r.EnterLowPower(c.Slot)
	case OpPowerDownExit:
		if s.state != StatePowerDown {
			return &TimingError{c, "not in power-down"}
		}
		if c.Slot < r.ExitAt() {
			return &TimingError{c, r.Why(timing.PowerDownExit, c.Bank, c.Slot)}
		}
		s.setState(StatePrecharged, c.Slot)
		r.ExitPowerDown(c.Slot)
	case OpSelfRefreshExit:
		if s.state != StateSelfRefresh {
			return &TimingError{c, "not in self-refresh"}
		}
		if c.Slot < r.ExitAt() {
			return &TimingError{c, r.Why(timing.SelfRefreshExit, c.Bank, c.Slot)}
		}
		s.setState(StatePrecharged, c.Slot)
		// Leaving self-refresh starts a fresh retention epoch (the
		// rulebook restarts its obligation clock): the array was refreshed
		// throughout.
		r.ExitSelfRefresh(c.Slot)
		s.lastRefSlot = c.Slot
	case desc.OpNop:
		// nothing: legal in every state (DESELECT keeps CKE unchanged)
	default:
		return &TimingError{c, "unknown operation"}
	}
	s.now = c.Slot
	// Every op the switch accepts is in [0, numTraceOps), so these array
	// reads are in range. The energy integration is a flat read of the
	// per-op ledger hoisted from the model at New.
	s.counts[c.Op]++
	s.cmdEnergy += s.opEnergy[c.Op]
	return nil
}

// Run issues a whole trace, stopping at the first violation.
func (s *Simulator) Run(cmds []Command) error {
	for _, c := range cmds {
		if err := s.Issue(c); err != nil {
			return err
		}
	}
	return nil
}

// Result summarizes the energy accounting of a finished trace.
type Result struct {
	// Slots is the trace duration in control-clock slots; Duration the
	// wall-clock time.
	Slots    int64
	Duration units.Duration
	// CommandEnergy is the accumulated per-command energy; Background the
	// residency-weighted standby energy over the duration (active standby
	// while any bank is open, precharged standby otherwise, IDD2P-derived
	// power during power-down, IDD6-derived power during self-refresh);
	// Total their sum.
	CommandEnergy units.Energy
	Background    units.Energy
	Total         units.Energy
	// AveragePower and AverageCurrent over the duration.
	AveragePower   units.Power
	AverageCurrent units.Current
	// Bits transferred and the resulting energy per bit (0 if no data).
	Bits         int64
	EnergyPerBit units.Energy
	// Counts per operation; only operations that occurred have entries,
	// and a trace that issued no commands leaves Counts nil (reads of a
	// nil map return zero, so callers may index it unconditionally).
	Counts map[desc.Op]int64
	// BusUtilization is the share of slots the data bus carried a burst,
	// clamped to [0, 1] (an endSlot that truncates a final burst would
	// otherwise overcount the burst's full occupancy).
	BusUtilization float64
	// Per-state slot residency: every slot of the trace is in exactly one
	// background state, so the four counters sum to Slots.
	ActiveSlots      int64
	PrechargedSlots  int64
	PowerDownSlots   int64
	SelfRefreshSlots int64
	// Per-state background energy. Active and precharged standby draw the
	// same model power (IDD3N == IDD2N, see core.IDD), so their split is
	// informational; power-down and self-refresh draw PowerDownPower and
	// SelfRefreshPower. Each entry is rounded independently, so their sum
	// can differ from Background by an ulp: Background combines the
	// equal-power active+precharged slots in one multiply to stay
	// bit-identical to the pre-power-state engine on traces without
	// power-state commands (pinned by TestGoldenResultUnchanged).
	ActiveBackground      units.Energy
	PrechargedBackground  units.Energy
	PowerDownBackground   units.Energy
	SelfRefreshBackground units.Energy
	// Retention audit (report-only; all zero when the spec carries no
	// RefreshInterval). Refreshes counts ref commands issued.
	// MaxRefreshInterval is the widest gap in slots between consecutive
	// refreshes — including the trace edges, with slot 0 and any
	// self-refresh window treated as refreshed — so a retention-clean
	// trace keeps it at or under (MaxPostponedRefreshes+1)*tREFI.
	// MissedRefreshDeadlines counts tREFI obligations served or abandoned
	// past their JEDEC postponement deadline.
	Refreshes              int64
	MaxRefreshInterval     int64
	MissedRefreshDeadlines int64
}

// Result closes the trace at the given end slot and reports the totals.
// The background integral is residency-weighted: the trailing slots from
// the last state change to endSlot are attributed to the state the
// simulator is still in (Result does not mutate the simulator, so it can
// be called repeatedly or mid-trace).
func (s *Simulator) Result(endSlot int64) Result {
	if endSlot < s.now {
		endSlot = s.now
	}
	spec := s.m.D.Spec
	clock := float64(spec.ControlClock)
	dur := units.Duration(float64(endSlot) / clock)
	slots := s.stateSlots // copy; close the open residency without mutating s
	if endSlot > s.stateSince {
		slots[s.state] += endSlot - s.stateSince
	}
	// Residency-weighted background. Active and precharged standby share
	// one power (IDD3N == IDD2N in this model), so their slots combine in
	// a single multiply: a trace that never left the standby states
	// integrates background exactly as the flat pre-power-state engine
	// did, bit for bit. The low-power terms add literal 0.0 when unused.
	standby := slots[StateActive] + slots[StatePrecharged]
	bg := s.statePower[StatePrecharged] * (float64(standby) / clock)
	if slots[StatePowerDown] > 0 {
		bg += s.statePower[StatePowerDown] * (float64(slots[StatePowerDown]) / clock)
	}
	if slots[StateSelfRefresh] > 0 {
		bg += s.statePower[StateSelfRefresh] * (float64(slots[StateSelfRefresh]) / clock)
	}
	total := s.cmdEnergy + bg
	r := Result{
		Slots:            endSlot,
		Duration:         dur,
		CommandEnergy:    units.Energy(s.cmdEnergy),
		Background:       units.Energy(bg),
		Total:            units.Energy(total),
		Bits:             s.bits,
		ActiveSlots:      slots[StateActive],
		PrechargedSlots:  slots[StatePrecharged],
		PowerDownSlots:   slots[StatePowerDown],
		SelfRefreshSlots: slots[StateSelfRefresh],
		ActiveBackground: units.Energy(s.statePower[StateActive] * (float64(slots[StateActive]) / clock)),
		PrechargedBackground: units.Energy(
			s.statePower[StatePrecharged] * (float64(slots[StatePrecharged]) / clock)),
		PowerDownBackground: units.Energy(
			s.statePower[StatePowerDown] * (float64(slots[StatePowerDown]) / clock)),
		SelfRefreshBackground: units.Energy(
			s.statePower[StateSelfRefresh] * (float64(slots[StateSelfRefresh]) / clock)),
	}
	// Close the retention audit at endSlot without mutating the
	// simulator: the tail from the last refresh to endSlot widens the
	// observed gap, and obligations whose deadline falls inside the trace
	// but were never served are missed — unless the trace ends parked in
	// self-refresh, which covers retention on its own.
	r.Refreshes = s.refCount
	if s.r.Timing().REFI > 0 {
		gap, missed := s.maxRefGap, s.refMissed
		if s.state != StateSelfRefresh {
			if g := endSlot - s.lastRefSlot; g > gap {
				gap = g
			}
			if m := s.r.Overdue(endSlot, MaxPostponedRefreshes); m > 0 {
				missed += m
			}
		}
		r.MaxRefreshInterval = gap
		r.MissedRefreshDeadlines = missed
	}
	// The counts map is only materialized when something was issued; an
	// empty trace reports a nil map instead of allocating one.
	var issued int64
	for _, n := range s.counts {
		issued += n
	}
	if issued > 0 {
		r.Counts = make(map[desc.Op]int64, numTraceOps)
		for op, n := range s.counts {
			if n > 0 {
				r.Counts[desc.Op(op)] = n
			}
		}
	}
	if dur > 0 {
		r.AveragePower = units.Power(total / float64(dur))
		if v := s.m.D.Electrical.Vdd; v > 0 {
			r.AverageCurrent = units.Current(float64(r.AveragePower) / float64(v))
		}
	}
	if s.bits > 0 {
		r.EnergyPerBit = units.Energy(total / float64(s.bits))
	}
	if endSlot > 0 {
		burstCmds := s.counts[desc.OpRead] + s.counts[desc.OpWrite]
		u := float64(burstCmds*s.r.Timing().Burst) / float64(endSlot)
		if u > 1 {
			u = 1
		}
		r.BusUtilization = u
	}
	return r
}
