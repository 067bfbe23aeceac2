// Package core implements the DRAM power engine of Section III of the
// paper. It follows the program flow of Figure 4:
//
//  1. the description is parsed and syntax-checked (package desc),
//  2. wire and device capacitances are calculated (packages geom, tech,
//     circuits and the signaling resolution here),
//  3. the charge associated with activate, precharge, read and write is
//     determined,
//  4. the currents of each operation follow from charge × frequency,
//  5. the power of each operation is the current referred to the external
//     supply through the generator/pump efficiencies,
//  6. the power of the specified pattern combines the operations'
//     contributions with the pattern mix.
//
// The central quantity is the ChargeItem (package circuits): a named
// capacitance switched a number of times per operation in one of the four
// voltage domains. Everything the model reports — operation energies, IDD
// currents, pattern power, component Paretos — is an aggregation of charge
// items.
package core

import (
	"fmt"
	"slices"
	"strings"

	"drampower/internal/circuits"
	"drampower/internal/desc"
	"drampower/internal/geom"
	"drampower/internal/tech"
	"drampower/internal/units"
)

// Model is a fully resolved DRAM: description plus derived geometry and
// capacitances, ready for power evaluation.
type Model struct {
	D     *desc.Description
	Grid  *geom.Grid
	Array *geom.ArrayLayout
	P     tech.Params

	// Segments are the resolved signaling floorplan wires.
	Segments []ResolvedSegment

	// names holds the charge and background item names, the segments'
	// then the logic blocks' (see itemNames), and slab the six ledger
	// lists; a build into the model's storage reuses both (see build).
	names []string
	slab  []circuits.ChargeItem

	// ledger holds the immutable per-op charge lists precomputed by
	// Build, indexed by desc.Op. Charges serves O(1) reads from it; the
	// slices inside are shared and must never be mutated (RecomputeCharges
	// is the escape hatch for post-Build description changes). All six
	// lists are capacity-capped windows of one slice.
	ledger [desc.NumOps]OpCharges
	// opEnergy caches each operation's Vdd-referred energy per occurrence
	// so the trace simulator's per-command integration is a plain lookup.
	opEnergy [desc.NumOps]units.Energy
	// background caches the continuous-power ledger (see Background).
	background Background

	// derived is the parameter set as produced by the circuit derivation
	// (the derive stage); params is the resolved set after the optional
	// calibration overlay (the seal stage). Uncalibrated models have the
	// two bit-identical. See ParamSet.
	derived ParamSet
	params  ParamSet
	// calibrated records that a non-empty overlay was applied;
	// calibration carries the overlay's name.
	calibrated  bool
	calibration string
}

// ResolvedSegment is a signaling floorplan segment with its routed length,
// per-wire capacitance and derived wire count, as resolved at Build.
type ResolvedSegment struct {
	// Name and Kind are the segment's name and bus kind.
	Name   string
	Kind   desc.SignalKind
	Length units.Length
	// WireCap is the wire capacitance of one wire of the segment.
	WireCap units.Capacitance
	// BufCap is the device load of the segment's head buffer (per wire).
	BufCap units.Capacitance
	// Wires is the resolved wire count.
	Wires int
	// Toggle is the resolved charging-event rate.
	Toggle float64
	// itemName is the charge and background item name, "wire <name>".
	itemName string
}

// TotalCapPerWire returns wire plus buffer capacitance of one wire.
func (r ResolvedSegment) TotalCapPerWire() units.Capacitance {
	return r.WireCap + r.BufCap
}

// Build resolves a description into a model. The description is validated
// first; Build fails on any validation problem. Build is BuildCalibrated
// with no overlay.
func Build(d *desc.Description) (*Model, error) {
	return BuildCalibrated(d, nil)
}

// BuildCalibrated resolves a description into a model and applies a
// calibration overlay to the resolved parameter set — the full
// derive → overlay → seal pipeline. A nil or empty overlay is a strict
// no-op: the model is bit-identical to Build's. Build and
// BuildCalibrated run the one build path on fresh storage, and no later
// build writes into a model they return, so the model is immutable and
// may be shared (the server caches it).
func BuildCalibrated(d *desc.Description, ov *desc.Overlay) (*Model, error) {
	s := newStorage()
	if err := s.m.build(d, ov); err != nil {
		return nil, err
	}
	return &s.m, nil
}

// storage holds a model with the grid and array layout it points to, so
// that a fresh model is one allocation.
type storage struct {
	m Model
	g geom.Grid
	a geom.ArrayLayout
}

func newStorage() *storage {
	s := new(storage)
	s.m.Grid, s.m.Array = &s.g, &s.a
	return s
}

// build resolves d into m: the one build path, which BuildCalibrated runs
// on fresh storage and Variant on pooled scratch. The grid, the array
// layout, the segments, the item names (kept while unchanged), the ledger
// slab and the background items go into the storage an earlier build
// left in m, where it fits; every other field starts from zero.
func (m *Model) build(d *desc.Description, ov *desc.Overlay) error {
	if err := d.Validate(); err != nil {
		return err
	}
	*m = Model{
		D: d, Grid: m.Grid, Array: m.Array, P: tech.Params{T: &d.Technology},
		Segments: m.Segments[:0], names: m.names, slab: m.slab,
		background: Background{Items: m.background.Items},
	}
	if err := m.Grid.Resolve(&d.Floorplan); err != nil {
		return err
	}
	w, h, err := geom.ArrayBlockExtents(m.Grid)
	if err != nil {
		return err
	}
	if err := m.Array.Resolve(&d.Floorplan, w, h); err != nil {
		return err
	}
	m.names = itemNames(m.names, d)
	if err := m.resolveSegments(m.names[:len(d.Signals)]); err != nil {
		return err
	}
	m.buildLedger(m.names[len(d.Signals):])
	m.derive()
	return m.applyOverlay(ov)
}

// ledgerScratch is the number of charge items buildLedger gathers on the
// stack before spilling to the heap; the shipped devices need about half.
const ledgerScratch = 128

// buildLedger precomputes the per-op charge ledgers, per-op energies and
// the background ledger (steps 3–5 of Figure 4, run once per Build). After
// this, Charges, OpEnergy, Background, EvaluatePattern and the trace
// simulator read cached immutable state instead of re-deriving the
// charge-event lists on every call. The six ops' items are gathered in a
// stack array and copied once into the model's slab; each op's list is a
// capacity-capped window of it, so an append to one op's items cannot
// reach the next op's.
func (m *Model) buildLedger(logicNames []string) {
	var scratch [ledgerScratch]circuits.ChargeItem
	items := scratch[:0]
	var end [desc.NumOps]int
	for _, op := range desc.AllOps {
		items = m.appendCharges(items, op, logicNames)
		end[op] = len(items)
	}
	m.slab = append(m.slab[:0], items...)
	start := 0
	for _, op := range desc.AllOps {
		oc := &m.ledger[op]
		*oc = OpCharges{Op: op, Items: m.slab[start:end[op]:end[op]]}
		m.opEnergy[op] = oc.EnergyFromVdd(m.D.Electrical)
		start = end[op]
	}
	m.background = m.computeBackground(m.background.Items[:0], logicNames)
}

// OpEnergy returns the resolved Vdd-referred energy one occurrence of op
// draws, at the electrical state the model was built with — including
// any calibration override. This is the O(1) lookup the trace simulator
// integrates per command.
func (m *Model) OpEnergy(op desc.Op) units.Energy {
	if op.Valid() {
		return m.params.OpEnergy[op]
	}
	return m.computeCharges(op).EnergyFromVdd(m.D.Electrical)
}

// OpEnergies returns the whole resolved per-op energy ledger as an array
// indexed by desc.Op (a copy; the caller may keep it). The trace
// simulator captures it once at construction so per-command energy
// integration is a flat array read with no Model indirection on the hot
// path.
func (m *Model) OpEnergies() [desc.NumOps]units.Energy { return m.params.OpEnergy }

// Item-name prefixes of the wire and logic charge and background items.
const (
	wirePrefix  = "wire "
	logicPrefix = "logic "
)

// resolveSegments computes lengths, capacitances, wire counts and toggle
// rates for every signaling segment, whose item names wireNames holds in
// order. Data buses widen by the accumulated mux (deserialization) ratio
// of upstream segments of the same bus.
func (m *Model) resolveSegments(wireNames []string) error {
	d := m.D
	serial := map[string]int{} // bus prefix -> accumulated widening
	m.Segments = slices.Grow(m.Segments[:0], len(d.Signals))
	for i := range d.Signals {
		s := &d.Signals[i]
		l, err := m.Grid.SegmentLength(s)
		if err != nil {
			return err
		}
		frac := s.EffectiveActiveFrac()
		rs := ResolvedSegment{
			Name:    s.Name,
			Kind:    s.Kind,
			Length:  l,
			WireCap: tech.WireCap(l, d.Technology.WireCapSignal).Times(frac),
			Toggle:  s.Toggle,

			itemName: wireNames[i],
		}
		if rs.Toggle < 0 {
			rs.Toggle = desc.DefaultToggle(s.Kind)
		}
		if s.BufNWidth > 0 || s.BufPWidth > 0 {
			// Cut-off segmentation (activefrac < 1) idles the buffers
			// beyond the cut as well.
			rs.BufCap = m.P.BufferLoad(s.BufNWidth, s.BufPWidth).Times(frac)
		}
		rs.Wires = m.segmentWires(s, serial)
		if s.MuxRatio > 1 && isDataKind(s.Kind) {
			serial[busPrefix(s.Kind)] *= s.MuxRatio
		}
		m.Segments = append(m.Segments, rs)
	}
	return nil
}

// itemNames returns the charge and background item names of d's signal
// segments ("wire <name>"), then of its logic blocks ("logic <name>"), in
// description order, all of them slices of one string. It returns names
// itself when they are these names already.
func itemNames(names []string, d *desc.Description) []string {
	ns := len(d.Signals)
	part := func(i int) (prefix, name string) {
		if i < ns {
			return wirePrefix, d.Signals[i].Name
		}
		return logicPrefix, d.LogicBlocks[i-ns].Name
	}
	same := len(names) == ns+len(d.LogicBlocks)
	for i := 0; same && i < len(names); i++ {
		prefix, name := part(i)
		n := names[i]
		same = len(n) == len(prefix)+len(name) && n[:len(prefix)] == prefix && n[len(prefix):] == name
	}
	if same {
		return names
	}
	names = make([]string, ns+len(d.LogicBlocks))
	size := 0
	for i := range names {
		prefix, name := part(i)
		size += len(prefix) + len(name)
	}
	var b strings.Builder
	b.Grow(size)
	for i := range names {
		prefix, name := part(i)
		b.WriteString(prefix)
		b.WriteString(name)
	}
	all := b.String()
	for i := range names {
		prefix, name := part(i)
		n := len(prefix) + len(name)
		names[i], all = all[:n], all[n:]
	}
	return names
}

func isDataKind(k desc.SignalKind) bool {
	return k == desc.SigDataRead || k == desc.SigDataWrite || k == desc.SigDataShared
}

func busPrefix(k desc.SignalKind) string { return k.String() }

// segmentWires derives the wire count of a segment from the specification
// unless overridden.
func (m *Model) segmentWires(s *desc.Segment, serial map[string]int) int {
	if s.Wires > 0 {
		return s.Wires
	}
	spec := m.D.Spec
	switch s.Kind {
	case desc.SigClock:
		if spec.ClockWires > 0 {
			return spec.ClockWires
		}
		return 1
	case desc.SigControl:
		if spec.MiscCtrlSignals > 0 {
			return spec.MiscCtrlSignals
		}
		return 4
	case desc.SigAddrRow:
		return spec.RowAddrBits
	case desc.SigAddrCol:
		return spec.ColAddrBits
	case desc.SigAddrBank:
		return spec.BankAddrBits
	default: // data
		p := busPrefix(s.Kind)
		if serial[p] == 0 {
			serial[p] = 1
		}
		return spec.IOWidth * serial[p]
	}
}

// BitsPerBurst returns the bits moved by one column command: IO width ×
// burst length (burst length defaults to the prefetch when unset).
func (m *Model) BitsPerBurst() int {
	bl := m.D.Spec.BurstLength
	if bl <= 0 {
		bl = m.D.Spec.Prefetch()
	}
	return m.D.Spec.IOWidth * bl
}

// BurstSlots returns the number of control-clock slots one burst occupies
// on the data bus (see desc.Specification.BurstSlots).
func (m *Model) BurstSlots() int { return int(m.D.Spec.BurstSlots()) }

// DieArea returns the die area of the floorplan.
func (m *Model) DieArea() units.Area { return m.Grid.DieArea() }

// Density returns the device density in bits implied by the addressing:
// banks × rows × page bits.
func (m *Model) Density() int64 {
	s := m.D.Spec
	return int64(s.Banks()) * (1 << uint(s.RowAddrBits)) * int64(s.PageBits())
}

// String identifies the model.
func (m *Model) String() string {
	return fmt.Sprintf("Model(%s, %d banks, %.1f mm²)",
		m.D.Name, m.D.Spec.Banks(), float64(m.DieArea())/1e-6)
}
