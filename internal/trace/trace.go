// Package trace implements a cycle-accounted DRAM command-trace simulator
// on top of the power engine: a bank state machine that enforces the JEDEC
// timing constraints (tRC, tRCD, tRP, tRAS, tRRD, tFAW, tRFC and data-bus
// occupancy) and integrates the per-command charges of package core over
// the trace. It is the substrate that makes the paper's operating patterns
// (Section III.B.4) well defined: the canned IDD loops are exactly the
// traces this simulator accepts at the maximum legal rate, and arbitrary
// workloads (streaming, random closed-page, mixed) can be evaluated the
// same way.
package trace

import (
	"fmt"
	"math"

	"drampower/internal/core"
	"drampower/internal/desc"
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

// bankState tracks one bank.
type bankState struct {
	active     bool
	row        int
	actSlot    int64 // slot of the last activate
	preSlot    int64 // slot of the last precharge
	everActive bool
}

// ringSize is the depth of the activate-history ring buffer. A power of
// two (for cheap index masking) of at least 4: the tRRD check needs the
// most recent activate, the tFAW check the 4th-most-recent.
const ringSize = 8

// MaxPostponedRefreshes is the JEDEC all-bank refresh postponement bound:
// a controller may defer up to 8 refresh commands while traffic is in
// flight, so the k-th refresh obligation (nominally due at k*tREFI) must
// complete by (k+8)*tREFI. The retention auditor flags refreshes that
// land past that deadline, and the controller in internal/ctl uses it as
// the default for Options.MaxPostponed.
const MaxPostponedRefreshes = 8

// Simulator executes a command trace against a model, enforcing timing and
// accumulating energy. The Issue hot path is allocation-free: per-op
// counters and energies live in fixed [numTraceOps] arrays, the per-state
// residency in a fixed [NumStates] array, and the activate history in a
// fixed ring buffer (see TestIssueZeroAllocs).
type Simulator struct {
	m *core.Model

	// Timing constraints in slots.
	tRC, tRCD, tRP, tRAS, tRRD, tFAW, tRFC int64
	burstSlots                             int64
	// Power-state timing constraints in slots: minimum CKE-low residency,
	// power-down exit to first valid command, self-refresh exit to first
	// valid command.
	tCKE, tXP, tXS int64

	banks     []bankState
	actRing   [ringSize]int64 // last ringSize activate slots (circular)
	actPos    int             // next write position in actRing
	actCount  int64           // total activates issued
	busUntil  int64           // first slot the data bus is free again
	burstBank int             // bank whose burst occupies the bus (-1 none)
	refUntil  int64           // refresh completion
	now       int64

	// Retention auditor: refresh coverage against the spec's tREFI. The
	// audit is report-only — it never rejects a command — so traces that
	// predate refresh scheduling replay with identical energy totals and
	// merely report their missed deadlines in Result. refi == 0 (no
	// RefreshInterval in the spec) disables the audit entirely.
	refi        int64 // tREFI in slots (0 = auditing off)
	refBaseSlot int64 // epoch origin: 0, or the slot of the last srx
	refCredit   int64 // refreshes issued since refBaseSlot
	refCount    int64 // refreshes issued over the whole trace
	lastRefSlot int64 // slot of the last refresh (or epoch origin)
	maxRefGap   int64 // widest observed refresh-to-refresh gap
	refMissed   int64 // obligations served or abandoned past their deadline

	// Power-state machine: the current background state, when it began,
	// and the per-state slot residency accumulated at every transition.
	state      State
	stateSince int64
	stateSlots [NumStates]int64
	openBanks  int    // banks with an open row (drives Active vs Precharged)
	lpEnter    int64  // slot of the last pde/sre, for the tCKEmin check
	exitValid  int64  // first slot row/column/refresh commands are legal after pdx/srx
	exitRule   string // "tXP" or "tXS", for rejection messages

	counts     [numTraceOps]int64
	opEnergy   [numTraceOps]float64 // per-op energy, hoisted from the model at New
	statePower [NumStates]float64   // per-state background power (W), hoisted at New
	cmdEnergy  float64              // accumulated command energy (J)
	bits       int64
}

// New creates a simulator for the model.
func New(m *core.Model) *Simulator {
	spec := m.D.Spec
	toSlots := func(d units.Duration) int64 {
		// Guard against float noise pushing an exact multiple (7.5 ns at
		// 800 MHz = 6.0 slots) over the next integer.
		return int64(math.Ceil(float64(d)*float64(spec.ControlClock) - 1e-9))
	}
	tRP := toSlots(spec.PrechargeTime)
	if tRP < 1 {
		tRP = 1
	}
	tRC := toSlots(spec.RowCycle)
	if tRC < 2 {
		tRC = 2
	}
	tRAS := tRC - tRP
	if tRAS < 1 {
		tRAS = 1
	}
	s := &Simulator{
		m:          m,
		tRC:        tRC,
		tRCD:       maxI64(1, toSlots(spec.RowToColumnDelay)),
		tRP:        tRP,
		tRAS:       tRAS,
		tRRD:       maxI64(1, toSlots(spec.RowToRowDelay)),
		tFAW:       toSlots(spec.FourBankWindow),
		tRFC:       maxI64(1, toSlots(spec.RefreshCycle)),
		burstSlots: int64(m.BurstSlots()),
		banks:      make([]bankState, spec.Banks()),
		burstBank:  -1,
	}
	// tREFI for the retention auditor. A spec without a refresh interval
	// leaves refi at 0 and the audit off; the epoch starts at slot 0 with
	// the array assumed freshly refreshed (lastRefSlot 0).
	s.refi = toSlots(spec.RefreshInterval)
	if s.refi < 0 {
		s.refi = 0
	}
	// Power-state timings, derived from the row timings the description
	// already carries (the input language has no tCKE/tXP/tXS fields).
	// The derivations land on the DDR3-1600 datasheet ballpark: tCKEmin
	// ~ tRP/2 (4 nCK), tXP ~ tRCD/2 (5 nCK), tXS ~ tRFC + tRP
	// (tRFC + 10 ns). See DESIGN §9.
	s.tCKE = maxI64(3, s.tRP/2)
	s.tXP = maxI64(3, (s.tRCD+1)/2)
	s.tXS = s.tRFC + maxI64(2, s.tRP)
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
	s.state = StatePrecharged
	for i := range s.banks {
		s.banks[i].actSlot = math.MinInt64 / 2
		s.banks[i].preSlot = math.MinInt64 / 2
	}
	s.busUntil = math.MinInt64 / 2
	s.refUntil = math.MinInt64 / 2
	s.exitValid = math.MinInt64 / 2
	return s
}

// setState closes the residency of the current background state at slot
// and enters the next one. Allocation-free (called on the Issue hot path).
func (s *Simulator) setState(st State, slot int64) {
	s.stateSlots[s.state] += slot - s.stateSince
	s.state = st
	s.stateSince = slot
}

// checkPowerState rejects row/column/refresh commands while the device is
// in a CKE-low state or still inside the tXP/tXS exit-to-valid window.
// Only the rejection path allocates.
func (s *Simulator) checkPowerState(c Command) error {
	if s.state.lowPower() {
		return &TimingError{c, "device in " + s.state.String() + " state"}
	}
	if c.Slot < s.exitValid {
		return &TimingError{c, fmt.Sprintf("%s: low-power exit not complete until slot %d", s.exitRule, s.exitValid)}
	}
	return nil
}

func maxI64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}

// Now returns the current slot (the latest issue or advance time).
func (s *Simulator) Now() int64 { return s.now }

// Issue validates and executes one command. Commands must arrive in
// non-decreasing slot order. On a timing violation the command is rejected
// with a *TimingError and the simulator state is unchanged.
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
	if c.Bank < 0 || c.Bank >= len(s.banks) {
		return &TimingError{c, fmt.Sprintf("bank %d outside 0..%d", c.Bank, len(s.banks)-1)}
	}
	b := &s.banks[c.Bank]
	switch c.Op {
	case desc.OpActivate:
		if err := s.checkPowerState(c); err != nil {
			return err
		}
		if b.active {
			return &TimingError{c, "bank already active"}
		}
		if c.Slot < b.actSlot+s.tRC {
			return &TimingError{c, fmt.Sprintf("tRC: last activate at %d", b.actSlot)}
		}
		if c.Slot < b.preSlot+s.tRP {
			return &TimingError{c, fmt.Sprintf("tRP: precharge at %d not complete", b.preSlot)}
		}
		if c.Slot < s.refUntil {
			return &TimingError{c, "tRFC: refresh in progress"}
		}
		// tRRD binds against the most recent activate only: activates
		// arrive in slot order, so an older activate can never be the
		// tighter constraint.
		if s.actCount > 0 {
			if t := s.actRing[(s.actPos+ringSize-1)&(ringSize-1)]; c.Slot < t+s.tRRD {
				return &TimingError{c, fmt.Sprintf("tRRD: activate at %d", t)}
			}
		}
		if s.tFAW > 0 && s.actCount >= 4 {
			if w := s.actRing[(s.actPos+ringSize-4)&(ringSize-1)]; c.Slot < w+s.tFAW {
				return &TimingError{c, fmt.Sprintf("tFAW: fourth activate at %d", w)}
			}
		}
		b.active, b.row, b.actSlot, b.everActive = true, c.Row, c.Slot, true
		s.actRing[s.actPos] = c.Slot
		s.actPos = (s.actPos + 1) & (ringSize - 1)
		s.actCount++
		s.openBanks++
		if s.openBanks == 1 {
			s.setState(StateActive, c.Slot)
		}
	case desc.OpRead, desc.OpWrite:
		if err := s.checkPowerState(c); err != nil {
			return err
		}
		if !b.active {
			return &TimingError{c, "bank not active"}
		}
		if b.row != c.Row {
			return &TimingError{c, fmt.Sprintf("row %d open, access to row %d", b.row, c.Row)}
		}
		if c.Slot < b.actSlot+s.tRCD {
			return &TimingError{c, fmt.Sprintf("tRCD: activate at %d", b.actSlot)}
		}
		if c.Slot < s.busUntil {
			return &TimingError{c, fmt.Sprintf("data bus busy until slot %d", s.busUntil)}
		}
		s.busUntil = c.Slot + s.burstSlots
		s.burstBank = c.Bank
		s.bits += int64(s.m.BitsPerBurst())
	case desc.OpPrecharge:
		if err := s.checkPowerState(c); err != nil {
			return err
		}
		if !b.active {
			return &TimingError{c, "bank not active"}
		}
		if c.Slot < b.actSlot+s.tRAS {
			return &TimingError{c, fmt.Sprintf("tRAS: activate at %d", b.actSlot)}
		}
		// A precharge may not cut off its own bank's burst: the read or
		// write that owns the data bus must drain first. Other banks'
		// precharges pass — the bus is not theirs.
		if c.Slot < s.busUntil && c.Bank == s.burstBank {
			return &TimingError{c, fmt.Sprintf("burst on bank %d drains until slot %d", c.Bank, s.busUntil)}
		}
		b.active = false
		b.preSlot = c.Slot
		s.openBanks--
		if s.openBanks == 0 {
			s.setState(StatePrecharged, c.Slot)
		}
	case desc.OpRefresh:
		if err := s.checkPowerState(c); err != nil {
			return err
		}
		for i := range s.banks {
			if s.banks[i].active {
				return &TimingError{c, fmt.Sprintf("bank %d active at refresh", i)}
			}
		}
		if c.Slot < s.refUntil {
			return &TimingError{c, "tRFC: previous refresh in progress"}
		}
		s.refUntil = c.Slot + s.tRFC
		// Retention audit: this refresh serves obligation refCredit+1 of
		// the current epoch; landing past that obligation's postponement
		// deadline is a miss. Pure integer bookkeeping — no allocation.
		if s.refi > 0 {
			if g := c.Slot - s.lastRefSlot; g > s.maxRefGap {
				s.maxRefGap = g
			}
			if c.Slot > s.refBaseSlot+(s.refCredit+1+MaxPostponedRefreshes)*s.refi {
				s.refMissed++
			}
			s.refCredit++
			s.refCount++
			s.lastRefSlot = c.Slot
		}
	case OpPowerDownEnter, OpSelfRefreshEnter:
		if s.state.lowPower() {
			return &TimingError{c, "already in " + s.state.String() + " state"}
		}
		if c.Slot < s.exitValid {
			return &TimingError{c, fmt.Sprintf("%s: low-power exit not complete until slot %d", s.exitRule, s.exitValid)}
		}
		if s.openBanks > 0 {
			return &TimingError{c, fmt.Sprintf("%d bank(s) open (precharge power-down/self-refresh require all banks closed)", s.openBanks)}
		}
		if c.Slot < s.refUntil {
			return &TimingError{c, "tRFC: refresh in progress"}
		}
		if c.Slot < s.busUntil {
			return &TimingError{c, fmt.Sprintf("data bus busy until slot %d", s.busUntil)}
		}
		st := StatePowerDown
		if c.Op == OpSelfRefreshEnter {
			st = StateSelfRefresh
			// Self-refresh covers retention internally: close the audit
			// epoch here. Obligations whose deadlines had already passed
			// unserved are missed; everything not yet due is forgiven.
			if s.refi > 0 {
				if g := c.Slot - s.lastRefSlot; g > s.maxRefGap {
					s.maxRefGap = g
				}
				passed := (c.Slot-1-s.refBaseSlot)/s.refi - MaxPostponedRefreshes
				if m := passed - s.refCredit; m > 0 {
					s.refMissed += m
				}
			}
		}
		s.setState(st, c.Slot)
		s.lpEnter = c.Slot
	case OpPowerDownExit:
		if s.state != StatePowerDown {
			return &TimingError{c, "not in power-down"}
		}
		if c.Slot < s.lpEnter+s.tCKE {
			return &TimingError{c, fmt.Sprintf("tCKEmin: power-down entered at %d, earliest exit %d", s.lpEnter, s.lpEnter+s.tCKE)}
		}
		s.setState(StatePrecharged, c.Slot)
		s.exitValid, s.exitRule = c.Slot+s.tXP, "tXP"
	case OpSelfRefreshExit:
		if s.state != StateSelfRefresh {
			return &TimingError{c, "not in self-refresh"}
		}
		if c.Slot < s.lpEnter+s.tCKE {
			return &TimingError{c, fmt.Sprintf("tCKEmin: self-refresh entered at %d, earliest exit %d", s.lpEnter, s.lpEnter+s.tCKE)}
		}
		s.setState(StatePrecharged, c.Slot)
		s.exitValid, s.exitRule = c.Slot+s.tXS, "tXS"
		// Leaving self-refresh starts a fresh retention epoch: the array
		// was refreshed throughout, so the clock restarts here.
		if s.refi > 0 {
			s.refBaseSlot = c.Slot
			s.refCredit = 0
			s.lastRefSlot = c.Slot
		}
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
	if s.refi > 0 {
		gap, missed := s.maxRefGap, s.refMissed
		if s.state != StateSelfRefresh {
			if g := endSlot - s.lastRefSlot; g > gap {
				gap = g
			}
			due := (endSlot-s.refBaseSlot)/s.refi - MaxPostponedRefreshes
			if m := due - s.refCredit; m > 0 {
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
		u := float64(burstCmds*s.burstSlots) / float64(endSlot)
		if u > 1 {
			u = 1
		}
		r.BusUtilization = u
	}
	return r
}

// TimingSlots exposes the resolved constraints (in slots) for tests and
// workload generators.
func (s *Simulator) TimingSlots() (tRC, tRCD, tRP, tRAS, tRRD, tFAW, burst int64) {
	return s.tRC, s.tRCD, s.tRP, s.tRAS, s.tRRD, s.tFAW, s.burstSlots
}

// RefreshCycleSlots exposes the resolved tRFC in slots.
func (s *Simulator) RefreshCycleSlots() int64 { return s.tRFC }

// RefreshIntervalSlots exposes the resolved tREFI in slots (0 when the
// spec carries no RefreshInterval; the retention audit is off then).
func (s *Simulator) RefreshIntervalSlots() int64 { return s.refi }

// PowerStateSlots exposes the resolved power-state constraints (in slots):
// minimum CKE-low residency (tCKEmin), power-down exit to first valid
// command (tXP) and self-refresh exit to first valid command (tXS).
func (s *Simulator) PowerStateSlots() (tCKE, tXP, tXS int64) {
	return s.tCKE, s.tXP, s.tXS
}

// PowerState returns the background state the simulator is currently in.
func (s *Simulator) PowerState() State { return s.state }
