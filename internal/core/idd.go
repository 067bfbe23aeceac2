package core

import (
	"math"

	"drampower/internal/desc"
	"drampower/internal/units"
)

// IDD collects the datasheet-style supply currents the model reproduces
// for the verification of Section IV.A (Figures 8–9).
type IDD struct {
	// IDD0: one activate-precharge cycle per tRC, no data transfer.
	IDD0 units.Current
	// IDD2N: precharge standby, clock running. The model does not
	// distinguish bank-state-dependent standby leakage, so IDD2N and
	// IDD3N both report the background current.
	IDD2N units.Current
	// IDD3N: active standby.
	IDD3N units.Current
	// IDD4R: gapless read bursts.
	IDD4R units.Current
	// IDD4W: gapless write bursts.
	IDD4W units.Current
	// IDD5: auto-refresh at the minimum refresh cycle time.
	IDD5 units.Current
	// IDD7: interleaved activate-read-precharge across banks at the
	// four-activate-window limit.
	IDD7 units.Current
}

// slotsFor converts a duration into control-clock slots (at least min).
func (m *Model) slotsFor(d units.Duration, min int) int {
	f := m.D.Spec.ControlClock
	n := int(math.Round(float64(d) * float64(f)))
	if n < min {
		n = min
	}
	return n
}

// PatternIDD0 returns the IDD0 measurement loop: one activate and one
// precharge per row cycle time.
func (m *Model) PatternIDD0() desc.Pattern {
	n := m.slotsFor(m.D.Spec.RowCycle, 2)
	loop := make([]desc.Op, n)
	for i := range loop {
		loop[i] = desc.OpNop
	}
	loop[0] = desc.OpActivate
	loop[n/2] = desc.OpPrecharge
	return desc.Pattern{Loop: loop}
}

// PatternIDD4 returns the gapless-burst loop for reads (write=false) or
// writes (write=true): one column command per burst duration.
func (m *Model) PatternIDD4(write bool) desc.Pattern {
	n := m.BurstSlots()
	loop := make([]desc.Op, n)
	for i := range loop {
		loop[i] = desc.OpNop
	}
	if write {
		loop[0] = desc.OpWrite
	} else {
		loop[0] = desc.OpRead
	}
	return desc.Pattern{Loop: loop}
}

// PatternIDD5 returns the refresh loop: one all-bank refresh per refresh
// cycle time (tRFC).
func (m *Model) PatternIDD5() desc.Pattern {
	n := m.slotsFor(m.D.Spec.RefreshCycle, 2)
	loop := make([]desc.Op, n)
	for i := range loop {
		loop[i] = desc.OpNop
	}
	loop[0] = desc.OpRefresh
	return desc.Pattern{Loop: loop}
}

// idd7Group returns the activate spacing of the interleaved pattern in
// control-clock slots: the largest of the burst occupancy, tRRD, tFAW/4
// and the same-bank row cycle spread across the banks.
func (m *Model) idd7Group() int {
	spec := m.D.Spec
	group := 1 + m.BurstSlots() + 1
	if n := m.slotsFor(spec.RowToRowDelay, 1); n > group {
		group = n
	}
	if spec.FourBankWindow > 0 {
		if n := m.slotsFor(units.Duration(float64(spec.FourBankWindow)/4), 1); n > group {
			group = n
		}
	}
	banks := spec.Banks()
	if banks > 0 {
		if n := (m.slotsFor(spec.RowCycle, 1) + banks - 1) / banks; n > group {
			group = n
		}
	}
	if group < 3 {
		group = 3
	}
	return group
}

// BurstsPerActivation returns the number of column bursts the interleaved
// IDD7-style pattern issues per row activation: as many as fit between
// consecutive activates. Activation rates are pinned by row timings
// (tRRD, tFAW, tRC) that barely changed across generations, while the per
// pin bandwidth doubled with every interface — so the bursts per
// activation grow from 1 (SDR) to several (DDR4/DDR5), which is exactly
// the shift of power "from the activate and precharge operation to the
// read and write operation" that Section IV.B describes.
func (m *Model) BurstsPerActivation() int {
	// Round to the nearest burst count: the pattern generator may overlap
	// the last burst with the precharge slot (auto-precharge), so a group
	// that fits one and a half bursts runs two.
	slots := m.BurstSlots()
	n := (m.idd7Group() - 2 + slots/2) / slots
	if n < 1 {
		n = 1
	}
	return n
}

// PatternIDD7 returns the bank-interleaved loop: activates as fast as the
// row timings allow, the data bus filled with column bursts to the open
// row (see BurstsPerActivation), a precharge closing each group.
// writeShare selects the fraction of column commands that are writes; the
// paper's Figure 10 pattern uses 0.5 ("Idd7 but half of the read
// operations replaced by write operations"), the plain IDD7 uses 0.
func (m *Model) PatternIDD7(writeShare float64) desc.Pattern {
	spec := m.D.Spec
	bursts := m.BurstsPerActivation()
	group := m.idd7Group()
	banks := spec.Banks()
	if banks < 1 {
		banks = 1
	}
	loop := make([]desc.Op, banks*group)
	writesOwed := 0.0
	for b := 0; b < banks; b++ {
		g := loop[b*group : (b+1)*group]
		for i := range g {
			g[i] = desc.OpNop
		}
		g[0] = desc.OpActivate
		writesOwed += writeShare
		col := desc.OpRead
		if writesOwed >= 0.5 {
			col = desc.OpWrite
			writesOwed--
		}
		for c := 0; c < bursts; c++ {
			g[1+c*m.BurstSlots()] = col
		}
		g[group-1] = desc.OpPrecharge
	}
	return desc.Pattern{Loop: loop}
}

// IDD reports all datasheet currents from the resolved parameter set:
// the loop currents were evaluated from their measurement patterns at
// derive time (and possibly overridden by a calibration overlay), the
// standby currents are the resolved background power referred through
// Vdd.
func (m *Model) IDD() IDD {
	var idd IDD
	if v := m.D.Electrical.Vdd; v > 0 {
		idd.IDD2N = units.Current(float64(m.params.StandbyPower) / float64(v))
	}
	idd.IDD3N = idd.IDD2N
	idd.IDD0 = m.params.IDD0
	idd.IDD4R = m.params.IDD4R
	idd.IDD4W = m.params.IDD4W
	idd.IDD5 = m.params.IDD5
	idd.IDD7 = m.params.IDD7
	return idd
}

// EnergyPerBitIDD4 returns the energy per transferred bit in a gapless
// read/write mix (the paper's Idd4-style energy metric: the row is open,
// only column and data-path energy counts).
func (m *Model) EnergyPerBitIDD4() units.Energy {
	rd := m.totals(m.PatternIDD4(false))
	wr := m.totals(m.PatternIDD4(true))
	return units.Energy(0.5 * (float64(rd.EnergyPerBit) + float64(wr.EnergyPerBit)))
}

// EnergyPerBitIDD7 returns the energy per transferred bit in the
// interleaved activate/read/write pattern of Figure 10/13 (half reads,
// half writes), the metric the paper reports in mW/Gbps = pJ/bit.
func (m *Model) EnergyPerBitIDD7() units.Energy {
	return m.totals(m.PatternIDD7(0.5)).EnergyPerBit
}

// PowerDownFactors describe how much of the background survives in the
// precharge power-down state (CKE low): the external clock still toggles
// the input stage, internal clocking is gated, and the DLL keeps a
// fraction of its bias for fast exit. These are the levers the
// controller-side power management of Hur & Lin (HPCA 2008, cited in
// Section V) exploits.
const (
	pdLogicFactor    = 0.10 // clock-gated always-on logic residue
	pdConstantFactor = 0.30 // DLL / receiver bias retained for fast exit
	pdWireFactor     = 0.15 // input clock stage only
)

// PowerDownPower returns the resolved power of the precharge power-down
// state (derived by derivePowerDownPower, possibly calibrated).
func (m *Model) PowerDownPower() units.Power { return m.params.PowerDownPower }

// IDD2P returns the precharge power-down current.
func (m *Model) IDD2P() units.Current {
	if v := m.D.Electrical.Vdd; v > 0 {
		return units.Current(float64(m.PowerDownPower()) / float64(v))
	}
	return 0
}

// PowerDownSavings quantifies the controller-side opportunity: the share
// of standby power a power-down entry removes (Section V's system-level
// power management schemes schedule exactly this).
func (m *Model) PowerDownSavings() float64 {
	bg := float64(m.params.StandbyPower)
	if bg <= 0 {
		return 0
	}
	return 1 - float64(m.params.PowerDownPower)/bg
}

// SelfRefreshFactors describe the residue of the background power in the
// self-refresh state (CKE low, external clock stopped, DLL off): only a
// minimal bias survives, the input clock stage is quiesced, and the
// always-on logic is reduced to the internal refresh oscillator. On top
// of that residue the device pays for the refreshes it now performs
// itself — one all-bank refresh per refresh interval, the same energy
// the controller would otherwise issue as explicit ref commands.
const (
	srLogicFactor    = 0.02 // internal oscillator + refresh counter only
	srConstantFactor = 0.15 // DLL off, minimal receiver bias retained
	srWireFactor     = 0.02 // external clock stopped; leakage-level residue
)

// SelfRefreshPower returns the resolved power of the self-refresh state:
// the scaled-down background residue plus the internally generated
// refresh stream (see deriveSelfRefreshPower), possibly calibrated. This
// is the IDD6 analogue of PowerDownPower/IDD2P and sits below both — the
// datasheet ordering IDD6 < IDD2P < IDD2N is pinned by tests.
func (m *Model) SelfRefreshPower() units.Power { return m.params.SelfRefreshPower }

// IDD6 returns the self-refresh current, the datasheet ballpark the
// trace simulator's self-refresh residency accounting draws.
func (m *Model) IDD6() units.Current {
	if v := m.D.Electrical.Vdd; v > 0 {
		return units.Current(float64(m.SelfRefreshPower()) / float64(v))
	}
	return 0
}
