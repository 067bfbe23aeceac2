// Package circuits models the on-pitch DRAM circuitry of Section II and
// III.B.3 of the paper: the bitline sense-amplifier (Figure 2, 11
// transistors per bitline pair), the local wordline driver (Figure 3, 3
// transistors per local wordline), the master wordline path with its
// decoder, and the column access path (column select lines, bit switches,
// local array data lines).
//
// Each model yields ChargeItems: named capacitance × events × domain
// records that the power engine (package core) turns into charge, current
// and power via Q = C·V·n and E = C·V²·n. "Events" counts charging events
// — discharging draws nothing from the supply, so a full swing up and down
// is one event, which is equivalent to the paper's convention of ½·C·V²
// per half-swing counted twice (Eq. 1–2).
package circuits

import (
	"drampower/internal/desc"
	"drampower/internal/geom"
	"drampower/internal/tech"
	"drampower/internal/units"
)

// Group classifies charge items for reporting and for the shift analysis
// of Section IV.B (array-related vs wiring vs logic power).
type Group int

// Reporting groups.
const (
	GroupArray    Group = iota // bitlines, cells, sense amplifiers
	GroupRow                   // wordlines, row decode
	GroupColumn                // column select, local data lines
	GroupDataPath              // data bus segments, serializer
	GroupClock                 // clock distribution
	GroupLogic                 // miscellaneous peripheral logic
	GroupStatic                // constant current sinks
)

// NumGroups is the number of reporting groups; Group values are
// contiguous in [0, NumGroups), so [NumGroups]T arrays index by Group.
const NumGroups = int(GroupStatic) + 1

var groupNames = map[Group]string{
	GroupArray: "array", GroupRow: "row", GroupColumn: "column",
	GroupDataPath: "datapath", GroupClock: "clock", GroupLogic: "logic",
	GroupStatic: "static",
}

// String returns the lower-case group name.
func (g Group) String() string { return groupNames[g] }

// ChargeItem is one named contribution: Cap is the capacitance charged per
// event, Events the number of charging events per operation, and Domain
// the supply the charge is drawn from.
type ChargeItem struct {
	Name   string
	Group  Group
	Domain desc.Domain
	Cap    units.Capacitance
	Events float64
}

// Charge returns the total charge the item draws from its domain supply
// per operation: Q = C·V·n.
func (it ChargeItem) Charge(v units.Voltage) units.Charge {
	return units.Charge(float64(it.Cap) * float64(v) * it.Events)
}

// Energy returns the energy the item draws from its domain supply per
// operation: E = C·V²·n.
func (it ChargeItem) Energy(v units.Voltage) units.Energy {
	return units.Energy(float64(it.Cap) * float64(v) * float64(v) * it.Events)
}

// setDeviceSharing is the number of sense-amplifier pairs that share one
// pair of set (sense-enable) drivers along a stripe. Typical stripe
// layouts place one NSET/PSET driver per 4–16 pairs; the model uses 8.
const setDeviceSharing = 8

// equalizeTransistors is the transistor count of the equalize block of
// Figure 2: one bitline-to-bitline equalizer plus two devices to the
// bitline precharge level.
const equalizeTransistors = 3

// ActivateItems appends the charge items of one activate command to dst
// and returns the extended slice: master wordline and row decode, local
// wordlines with their drivers and cell gates, bitline sensing, cell
// restore and sense-amplifier device loads.
func ActivateItems(dst []ChargeItem, p tech.Params, d *desc.Description, a *geom.ArrayLayout) []ChargeItem {
	t := &d.Technology
	// Partial-activation schemes (Section V) raise only a fraction of the
	// row's local wordlines and sense amplifiers; the master wordline and
	// the row decode still run for the full row.
	frac := d.Floorplan.EffectiveActivation()

	// Master wordline: the M2 wire across the bank plus the junction of
	// its decoder pull-down and the select-gate loads of every local
	// wordline driver stripe it crosses. Boosted domain.
	mwlCap := tech.WireCap(a.MasterWLLength, t.WireCapMWL) +
		p.DrainLoad(t.MWLDecoderNMOS, tech.ClassHV) +
		p.DrainLoad(t.MWLDecoderPMOS, tech.ClassHV) +
		// Each LWD stripe taps the master wordline with the gates of the
		// local driver pair it selects (Figure 3).
		(p.GateLoad(t.SWDriverNMOS, 0, tech.ClassHV) +
			p.GateLoad(t.SWDriverPMOS, 0, tech.ClassHV)).Times(float64(a.LWDStripes))
	dst = append(dst, ChargeItem{
		Name: "master wordline", Group: GroupRow, Domain: desc.DomainVpp,
		Cap: mwlCap, Events: 1,
	})

	// Row predecode and decoder switching (Vint domain): the address
	// predecode lines toggle with the given activity across the decoder.
	if t.MWLPredecodeRatio > 0 {
		predecodeLines := 1 / t.MWLPredecodeRatio
		decCap := p.GateLoad(t.MWLDecoderNMOS, 0, tech.ClassHV) +
			p.GateLoad(t.MWLDecoderPMOS, 0, tech.ClassHV)
		dst = append(dst, ChargeItem{
			Name: "row decoder", Group: GroupRow, Domain: desc.DomainVint,
			Cap:    decCap.Times(t.MWLDecoderActivity),
			Events: predecodeLines,
		})
	}

	// Wordline controller: the phase/control lines distributed along the
	// selected row of LWD stripes.
	wlCtlCap := p.GateLoad(t.WLControlLoadNMOS, 0, tech.ClassHV) +
		p.GateLoad(t.WLControlLoadPMOS, 0, tech.ClassHV)
	dst = append(dst, ChargeItem{
		Name: "wordline control", Group: GroupRow, Domain: desc.DomainVpp,
		Cap: wlCtlCap, Events: float64(a.LWDStripes),
	})

	// Local wordlines: one per sub-array across the bank. Load = poly
	// wire + the gates of every cell on the line + the driver's own
	// junctions (Figure 3's three devices).
	lwlCap := tech.WireCap(a.LocalWLLength, t.WireCapLWL) +
		p.CellAccessGateCap().Times(float64(d.Floorplan.BitsPerLocalWordline)) +
		p.DrainLoad(t.SWDriverNMOS, tech.ClassHV) +
		p.DrainLoad(t.SWDriverPMOS, tech.ClassHV) +
		p.DrainLoad(t.SWDriverRestore, tech.ClassHV)
	dst = append(dst, ChargeItem{
		Name: "local wordlines", Group: GroupRow, Domain: desc.DomainVpp,
		Cap: lwlCap, Events: frac * float64(a.SubarraysAlongWL),
	})

	// Bitline sensing: each pair develops from the Vbl/2 precharge level;
	// the supply delivers Cbl·Vbl/2 of charge into the high-going bitline,
	// i.e. an effective capacitance of Cbl/2 at Vbl per pair.
	dst = append(dst, ChargeItem{
		Name: "bitline sensing", Group: GroupArray, Domain: desc.DomainVbl,
		Cap: t.BitlineCap.Times(0.5), Events: frac * float64(a.PageBits),
	})

	// Bitline-to-wordline coupling: the rising wordline couples into every
	// bitline it crosses through the given share of the bitline
	// capacitance; the sense amplifier restores the disturbance from Vbl.
	dst = append(dst, ChargeItem{
		Name: "bitline-wordline coupling", Group: GroupArray, Domain: desc.DomainVbl,
		Cap:    t.BitlineCap.Times(t.BitlineToWLShare * 0.5),
		Events: frac * float64(a.PageBits),
	})

	// Cell restore: on average the cells of the page take Ccell·Vbl/4 of
	// charge (half the cells store a high level, restored by half a swing
	// after charge sharing with the bitline).
	dst = append(dst, ChargeItem{
		Name: "cell restore", Group: GroupArray, Domain: desc.DomainVbl,
		Cap: t.CellCap.Times(0.25), Events: frac * float64(a.PageBits),
	})

	// Sense-amplifier devices: the cross-coupled pairs' gates and
	// junctions swing with the bitlines; the shared set drivers switch
	// once per sharing group.
	saCap := (tech.GateCap(t.BLSASenseNMOSWidth, t.BLSASenseNMOSLength, p.Oxide(tech.ClassLogic)) +
		tech.GateCap(t.BLSASensePMOSWidth, t.BLSASensePMOSLength, p.Oxide(tech.ClassLogic))).Times(2) +
		(p.DrainLoad(t.BLSASenseNMOSWidth, tech.ClassLogic) +
			p.DrainLoad(t.BLSASensePMOSWidth, tech.ClassLogic)).Times(2)
	setCap := (tech.GateCap(t.BLSANSetWidth, t.BLSANSetLength, p.Oxide(tech.ClassLogic)) +
		tech.GateCap(t.BLSAPSetWidth, t.BLSAPSetLength, p.Oxide(tech.ClassLogic))).Times(1.0 / setDeviceSharing)
	dst = append(dst, ChargeItem{
		Name: "sense amplifier devices", Group: GroupArray, Domain: desc.DomainVbl,
		Cap: saCap + setCap, Events: frac * float64(a.PageBits),
	})

	// Folded-bitline arrays add a bitline multiplexer per pair whose gate
	// is boosted to pass the full bitline level.
	if d.Floorplan.Arch == desc.Folded && t.BLSAMuxWidth > 0 {
		muxCap := tech.GateCap(t.BLSAMuxWidth, t.BLSAMuxLength, p.Oxide(tech.ClassHV)).Times(2)
		dst = append(dst, ChargeItem{
			Name: "bitline multiplexers", Group: GroupArray, Domain: desc.DomainVpp,
			Cap: muxCap, Events: frac * float64(a.PageBits),
		})
	}
	return dst
}

// PrechargeItems appends the charge items of one precharge command to dst
// and returns the extended slice. The bitlines themselves are equalized
// by charge sharing (no supply draw, the one adiabatic saving the paper
// notes); what costs energy is driving the equalize gates, the wordline
// restore devices and the master wordline path control.
func PrechargeItems(dst []ChargeItem, p tech.Params, d *desc.Description, a *geom.ArrayLayout) []ChargeItem {
	t := &d.Technology
	frac := d.Floorplan.EffectiveActivation()

	// Equalize gates: three boosted devices per pair (Figure 2).
	eqCap := tech.GateCap(t.BLSAEqualizeWidth, t.BLSAEqualizeLength, p.Oxide(tech.ClassHV)).
		Times(equalizeTransistors)
	dst = append(dst, ChargeItem{
		Name: "equalize gates", Group: GroupArray, Domain: desc.DomainVpp,
		Cap: eqCap, Events: frac * float64(a.PageBits),
	})

	// Wordline restore devices: pull the local wordlines low again.
	restoreCap := p.GateLoad(t.SWDriverRestore, 0, tech.ClassHV)
	dst = append(dst, ChargeItem{
		Name: "wordline restore", Group: GroupRow, Domain: desc.DomainVpp,
		Cap: restoreCap, Events: frac * float64(a.SubarraysAlongWL),
	})

	// Wordline control returns to the precharge state.
	wlCtlCap := p.GateLoad(t.WLControlLoadNMOS, 0, tech.ClassHV) +
		p.GateLoad(t.WLControlLoadPMOS, 0, tech.ClassHV)
	dst = append(dst, ChargeItem{
		Name: "wordline control", Group: GroupRow, Domain: desc.DomainVpp,
		Cap: wlCtlCap, Events: float64(a.LWDStripes),
	})

	// Precharge level regeneration: equalizing true and complement bitline
	// recovers the midlevel for free only in the ideal case; in practice
	// the bitline reference generator restores the charge-sharing midpoint
	// against sense-amplifier imbalance, array leakage and the charge the
	// column access removed. Modeled as a quarter of the bitline
	// capacitance recharged from the Vbl domain per pair.
	dst = append(dst, ChargeItem{
		Name: "precharge level regeneration", Group: GroupArray, Domain: desc.DomainVbl,
		Cap: t.BitlineCap.Times(0.25), Events: frac * float64(a.PageBits),
	})
	return dst
}

// ColumnItems appends the charge items of one column command (read or
// write) transferring `bits` bits between the sense amplifiers and the
// master array data lines to dst and returns the extended slice: column
// select pulses with the bit-switch gates they drive, and the local array
// data lines. The master array data lines and everything downstream
// belong to the signaling floorplan. For writes the flipped bitlines and
// cells are added.
func ColumnItems(dst []ChargeItem, p tech.Params, d *desc.Description, a *geom.ArrayLayout, bits int, write bool) []ChargeItem {
	t := &d.Technology
	if t.BitsPerCSL <= 0 || bits <= 0 {
		return dst
	}
	cslPulses := float64(bits) / float64(t.BitsPerCSL)

	// Column select line: M3 wire over BlocksPerCSL array blocks plus the
	// gates of the bit switches it turns on (two per accessed pair).
	cslCap := tech.WireCap(a.CSLLength, t.WireCapSignal) +
		tech.GateCap(t.BLSABitSwitchWidth, t.BLSABitSwitchLength, p.Oxide(tech.ClassLogic)).
			Times(2*float64(t.BitsPerCSL))
	dst = append(dst, ChargeItem{
		Name: "column select lines", Group: GroupColumn, Domain: desc.DomainVint,
		Cap: cslCap, Events: cslPulses,
	})

	// Local array data lines: differential pairs along the sense-amplifier
	// stripe; per transferred bit one line of the pair swings, loaded by
	// the wire and the bit-switch junctions hanging on it.
	ldqCap := tech.WireCap(a.LocalWLLength, t.WireCapSignal) +
		p.DrainLoad(t.BLSABitSwitchWidth, tech.ClassLogic).Times(float64(t.BitsPerCSL))
	dst = append(dst, ChargeItem{
		Name: "local data lines", Group: GroupColumn, Domain: desc.DomainVint,
		Cap: ldqCap, Events: float64(bits),
	})

	if write {
		// Writing flips on average half the accessed bitline pairs
		// rail-to-rail and rewrites the corresponding cells.
		dst = append(dst, ChargeItem{
			Name: "written bitlines", Group: GroupArray, Domain: desc.DomainVbl,
			Cap: t.BitlineCap, Events: 0.5 * float64(bits),
		})
		dst = append(dst, ChargeItem{
			Name: "written cells", Group: GroupArray, Domain: desc.DomainVbl,
			Cap: t.CellCap, Events: 0.5 * float64(bits),
		})
	}
	return dst
}

// BLSATransistorsPerPair returns the transistor count of the Figure 2
// sense amplifier for the given architecture: 4 sense devices, 3 equalize
// devices, 2 bit switches, and for folded bitlines 2 multiplexers — the
// "typical 11 transistors per bitline pair" of Section II (the open
// architecture saves the two multiplexers).
func BLSATransistorsPerPair(arch desc.BitlineArch) int {
	n := 4 + equalizeTransistors + 2
	if arch == desc.Folded {
		n += 2
	}
	return n
}

// LWDTransistorsPerLine returns the transistor count of the Figure 3 local
// wordline driver: the CMOS pair plus the restore device.
func LWDTransistorsPerLine() int { return 3 }
