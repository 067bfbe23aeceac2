package core

import (
	"fmt"
	"strings"

	"drampower/internal/desc"
	"drampower/internal/units"
)

// ParamSet is the resolved parameter set of a model: every scalar the
// evaluation layers (pattern evaluation, trace simulation, IDD reporting)
// consume, detached from the charge-item derivation that produced it. It
// is the hand-off point of the derive → overlay → seal pipeline:
//
//   - derive: Build runs the circuit math of Section III and fills a
//     ParamSet from the charge ledgers (charge × voltage × frequency),
//   - overlay: an optional calibration overlay (desc.Overlay) overrides
//     or scales individual resolved parameters — closing the gap between
//     analytically derived and measured values without touching the
//     capacitance model,
//   - seal: the model keeps the final ParamSet immutable; the trace
//     simulator and pattern evaluator read it, never re-derive.
//
// An overlay never feeds back into the derivation: overriding IDD0 does
// not change the activate energy — each key pins exactly one resolved
// parameter, and everything not overridden keeps its derived value.
type ParamSet struct {
	// OpEnergy is the Vdd-referred energy one occurrence of each
	// operation draws, indexed by desc.Op.
	OpEnergy [desc.NumOps]units.Energy
	// StandbyPower is the continuous background power (precharge standby,
	// clock running — the IDD2N/IDD3N state).
	StandbyPower units.Power
	// PowerDownPower is the precharge power-down power (the IDD2P state).
	PowerDownPower units.Power
	// SelfRefreshPower is the self-refresh power (the IDD6 state),
	// including the internally generated refresh stream.
	SelfRefreshPower units.Power
	// IDD0, IDD4R, IDD4W, IDD5, IDD7 are the datasheet loop currents
	// evaluated from their measurement patterns at derive time.
	IDD0  units.Current
	IDD4R units.Current
	IDD4W units.Current
	IDD5  units.Current
	IDD7  units.Current
}

// Params returns the resolved (possibly calibrated) parameter set the
// model evaluates with. The returned copy is the caller's to keep.
func (m *Model) Params() ParamSet { return m.params }

// DerivedParams returns the parameter set as derived from the circuit
// model, before any calibration overlay was applied. Comparing it against
// Params shows exactly what a calibration changed.
func (m *Model) DerivedParams() ParamSet { return m.derived }

// Calibrated reports whether a non-empty calibration overlay was applied
// to this model.
func (m *Model) Calibrated() bool { return m.calibrated }

// CalibrationName returns the name of the applied overlay ("" when
// uncalibrated or the overlay was unnamed).
func (m *Model) CalibrationName() string { return m.calibration }

// BackgroundPower returns the resolved continuous background power. This
// is the value residency accounting must use: unlike Background().Power
// (the derived itemized ledger, kept for breakdown reporting) it reflects
// calibration overrides of the standby parameter.
func (m *Model) BackgroundPower() units.Power { return m.params.StandbyPower }

// derive fills the resolved parameter set from the charge ledgers and
// measurement-loop evaluations (the first pipeline stage). It runs once
// per Build, after buildLedger; the IDD loop currents are the totals (the
// Current EvaluatePattern reports) of the placed measurement loops under
// the derived set, computed from their op counts and periods (see
// Model.loops) without drawing the loops or building the breakdown
// nothing here reads.
func (m *Model) derive() {
	m.params.OpEnergy = m.opEnergy
	m.params.StandbyPower = m.background.Power
	m.params.PowerDownPower = m.derivePowerDownPower()
	m.params.SelfRefreshPower = m.deriveSelfRefreshPower()
	m.derived = m.params

	l := m.loops()
	m.params.IDD0 = m.totals(&l[loopIDD0]).Current
	m.params.IDD4R = m.totals(&l[loopIDD4R]).Current
	m.params.IDD4W = m.totals(&l[loopIDD4W]).Current
	m.params.IDD5 = m.totals(&l[loopIDD5]).Current
	m.params.IDD7 = m.totals(&l[loopIDD7]).Current
	m.derived = m.params
}

// applyOverlay applies a calibration overlay to the resolved parameter
// set (the second pipeline stage). Entries apply in order; later entries
// see the result of earlier ones. Each key pins one resolved parameter:
//
//	idd0, idd4r, idd4w, idd5, idd7       -> the loop currents
//	idd2n, idd3n, standby                -> StandbyPower (set: I × Vdd)
//	idd2p, powerdown                     -> PowerDownPower
//	idd6, selfrefresh                    -> SelfRefreshPower
//	op.<op>.energy                       -> OpEnergy[op]
//
// The current-valued aliases (idd2n/idd2p/idd6) convert overrides through
// Vdd; scalings are unit-free and apply to either view identically.
func (m *Model) applyOverlay(ov *desc.Overlay) error {
	if ov.Empty() {
		return nil
	}
	vdd := float64(m.D.Electrical.Vdd)
	for _, e := range ov.Entries {
		if err := m.applyOverlayEntry(e, vdd); err != nil {
			return err
		}
	}
	m.calibrated = true
	m.calibration = ov.Name
	return nil
}

// The calibration ceilings: a calibrated value above its class's ceiling,
// far beyond any DRAM, is rejected, so that no energy or power the model
// reports overflows to infinity.
const (
	maxCalibratedCurrent = 1e3  // A
	maxCalibratedPower   = 1e3  // W
	maxCalibratedEnergy  = 1e-3 // J per operation
)

func (m *Model) applyOverlayEntry(e desc.OverlayEntry, vdd float64) error {
	// dst is the resolved parameter the key pins, viewed as its float64
	// (every units quantity is one), and set the value an override stores
	// there.
	var dst *float64
	set, ceiling, unit := e.Value, maxCalibratedPower, "W"
	current := func(p *units.Current) {
		dst, ceiling, unit = (*float64)(p), maxCalibratedCurrent, "A"
	}
	// The current-valued aliases of the background powers: an override
	// is a current, so the stored power is I × Vdd; a scaling is
	// dimensionless and applies directly.
	powerFromCurrent := func(p *units.Power) { dst, set = (*float64)(p), e.Value*vdd }
	switch e.Key {
	case "idd0":
		current(&m.params.IDD0)
	case "idd4r":
		current(&m.params.IDD4R)
	case "idd4w":
		current(&m.params.IDD4W)
	case "idd5":
		current(&m.params.IDD5)
	case "idd7":
		current(&m.params.IDD7)
	case "idd2n", "idd3n":
		powerFromCurrent(&m.params.StandbyPower)
	case "idd2p":
		powerFromCurrent(&m.params.PowerDownPower)
	case "idd6":
		powerFromCurrent(&m.params.SelfRefreshPower)
	case "standby":
		dst = (*float64)(&m.params.StandbyPower)
	case "powerdown":
		dst = (*float64)(&m.params.PowerDownPower)
	case "selfrefresh":
		dst = (*float64)(&m.params.SelfRefreshPower)
	default:
		// op.<op>.energy — the overlay parser only emits keys from
		// desc.OverlayKeys, so anything else here is a programming error.
		parts := strings.Split(e.Key, ".")
		if len(parts) != 3 || parts[0] != "op" || parts[2] != "energy" {
			return fmt.Errorf("core: unknown calibration key %q", e.Key)
		}
		op, err := desc.ParseOp(parts[1])
		if err != nil {
			return fmt.Errorf("core: calibration key %q: %v", e.Key, err)
		}
		dst, ceiling, unit = (*float64)(&m.params.OpEnergy[op]), maxCalibratedEnergy, "J"
	}
	v := set
	if e.Scale {
		v = *dst * e.Value
	}
	if !(v <= ceiling) {
		return fmt.Errorf("core: calibration %s: %g %s exceeds the %g %s ceiling", e.Key, v, unit, ceiling, unit)
	}
	*dst = v
	return nil
}

// derivePowerDownPower derives the precharge power-down power from the
// background ledger (see PowerDownFactors).
func (m *Model) derivePowerDownPower() units.Power {
	bg := m.Background()
	var p float64
	for _, it := range bg.Items {
		switch {
		case it.Name == "constant current":
			p += float64(it.Power) * pdConstantFactor
		case len(it.Name) > 5 && it.Name[:5] == "logic":
			p += float64(it.Power) * pdLogicFactor
		default: // clock / control wires
			p += float64(it.Power) * pdWireFactor
		}
	}
	return units.Power(p)
}

// deriveSelfRefreshPower derives the self-refresh power: the scaled-down
// background residue plus the internally generated refresh stream
// (OpEnergy(ref) amortized over the refresh interval). See
// SelfRefreshFactors.
func (m *Model) deriveSelfRefreshPower() units.Power {
	bg := m.Background()
	var p float64
	for _, it := range bg.Items {
		switch {
		case it.Name == "constant current":
			p += float64(it.Power) * srConstantFactor
		case len(it.Name) > 5 && it.Name[:5] == "logic":
			p += float64(it.Power) * srLogicFactor
		default: // clock / control wires
			p += float64(it.Power) * srWireFactor
		}
	}
	if ival := m.D.Spec.RefreshInterval; ival > 0 {
		p += float64(m.opEnergy[desc.OpRefresh]) / float64(ival)
	}
	return units.Power(p)
}
