package core

import (
	"drampower/internal/circuits"
	"drampower/internal/desc"
	"drampower/internal/units"
)

// OpCharges collects the charge items of one operation (one command).
type OpCharges struct {
	Op    desc.Op
	Items []circuits.ChargeItem
}

// EnergyFromVdd returns the energy one occurrence of the operation draws
// from the external supply. The accounting is charge-referred, following
// Section III.B.6 ("multiplying the current with the external supply
// voltage and in case of derived voltages the generator or pump efficiency
// factor"): a regulator passes the domain charge through at the external
// voltage (Q_in = Q_out / η with η ≈ 1), a charge pump multiplies it
// (η ≈ 0.5 for a doubler). Hence E = Q_domain · Vdd / η — linear in every
// individual voltage, quadratic only when all voltages scale together,
// which is why a ±20 % Vdd sweep moves power by exactly 40 % (Section
// IV.B).
func (oc *OpCharges) EnergyFromVdd(el desc.Electrical) units.Energy {
	var e float64
	for _, it := range oc.Items {
		v, eff := el.DomainVoltageAndSafeEff(it.Domain)
		e += float64(it.Charge(v)) * float64(el.Vdd) / eff
	}
	return units.Energy(e)
}

// ChargeFromVdd returns the equivalent charge drawn from the external
// supply per occurrence: E / Vdd.
func (oc *OpCharges) ChargeFromVdd(el desc.Electrical) units.Charge {
	if el.Vdd <= 0 {
		return 0
	}
	return units.Charge(float64(oc.EnergyFromVdd(el)) / float64(el.Vdd))
}

// EnergyByGroup splits the Vdd-referred energy per occurrence by reporting
// group, indexed by circuits.Group.
func (oc *OpCharges) EnergyByGroup(el desc.Electrical) [circuits.NumGroups]units.Energy {
	var out [circuits.NumGroups]units.Energy
	for _, it := range oc.Items {
		v, eff := el.DomainVoltageAndSafeEff(it.Domain)
		out[it.Group] += units.Energy(float64(it.Charge(v)) * float64(el.Vdd) / eff)
	}
	return out
}

// EnergyByDomain splits the Vdd-referred energy per occurrence by voltage
// domain, indexed by desc.Domain.
func (oc *OpCharges) EnergyByDomain(el desc.Electrical) [desc.NumDomains]units.Energy {
	var out [desc.NumDomains]units.Energy
	for _, it := range oc.Items {
		v, eff := el.DomainVoltageAndSafeEff(it.Domain)
		out[it.Domain] += units.Energy(float64(it.Charge(v)) * float64(el.Vdd) / eff)
	}
	return out
}

// Charges returns the charge items of one occurrence of op from the
// model's cached ledger. The items cover the array and row/column
// circuitry (package circuits), the signaling floorplan segments that
// fire for the operation, and the miscellaneous logic blocks active
// during it. Background contributions (clock, control bus, always-on
// logic, constant current) are *not* included — see Background.
//
// The ledger is computed once by Build and shared: the returned OpCharges
// is immutable and must not be modified. Callers that mutate the
// description after Build must use RecomputeCharges instead (or rebuild).
func (m *Model) Charges(op desc.Op) *OpCharges {
	if op.Valid() {
		return &m.ledger[op]
	}
	return m.computeCharges(op)
}

// RecomputeCharges rebuilds the charge items of op from the current
// description state, bypassing the ledger cached at Build time. It is the
// escape hatch for callers that mutated the description in place; the
// cached ledger is left untouched.
func (m *Model) RecomputeCharges(op desc.Op) *OpCharges {
	return m.computeCharges(op)
}

// computeCharges derives the charge-event list of one occurrence of op
// from the live description.
func (m *Model) computeCharges(op desc.Op) *OpCharges {
	return &OpCharges{Op: op, Items: m.appendCharges(nil, op, m.liveLogicNames())}
}

// liveLogicNames returns the item names of the description's logic blocks
// as they are now, for the recompute escape hatches.
func (m *Model) liveLogicNames() []string { return itemNames(m.D)[len(m.D.Signals):] }

// appendCharges appends the charge-event list of one occurrence of op to
// dst (steps 2–3 of the Figure 4 program flow): the circuit items first,
// then every wire and logic item the operation adds. logicNames holds
// the logic blocks' item names in block order.
func (m *Model) appendCharges(dst []circuits.ChargeItem, op desc.Op, logicNames []string) []circuits.ChargeItem {
	d := m.D
	bits := m.BitsPerBurst()
	switch op {
	case desc.OpActivate:
		dst = circuits.ActivateItems(dst, m.P, d, m.Array)
		dst = m.appendSegmentItems(dst, desc.SigAddrRow, 1)
		dst = m.appendSegmentItems(dst, desc.SigAddrBank, 1)
	case desc.OpPrecharge:
		dst = circuits.PrechargeItems(dst, m.P, d, m.Array)
		dst = m.appendSegmentItems(dst, desc.SigAddrBank, 1)
	case desc.OpRead, desc.OpWrite:
		write := op == desc.OpWrite
		dst = circuits.ColumnItems(dst, m.P, d, m.Array, bits, write)
		dst = m.appendSegmentItems(dst, desc.SigAddrCol, 1)
		dst = m.appendSegmentItems(dst, desc.SigAddrBank, 1)
		data := desc.SigDataRead
		if write {
			data = desc.SigDataWrite
		}
		dst = m.appendDataPathItems(dst, data, bits)
	case desc.OpRefresh:
		// A refresh command activates and precharges one row in every
		// bank (all-bank auto-refresh).
		start := len(dst)
		dst = circuits.ActivateItems(dst, m.P, d, m.Array)
		dst = circuits.PrechargeItems(dst, m.P, d, m.Array)
		banks := float64(d.Spec.Banks())
		for i := start; i < len(dst); i++ {
			dst[i].Events *= banks
		}
		dst = m.appendSegmentItems(dst, desc.SigAddrRow, banks)
	case desc.OpNop:
		// Only background power; no command charge.
	}
	return m.appendLogicItems(dst, op, logicNames)
}

// appendSegmentItems appends charge items for all segments of the given
// kind: events = toggle × wires × scale (one bus transition per command).
func (m *Model) appendSegmentItems(items []circuits.ChargeItem, kind desc.SignalKind, scale float64) []circuits.ChargeItem {
	for i := range m.Segments {
		rs := &m.Segments[i]
		if rs.Kind != kind {
			continue
		}
		items = append(items, circuits.ChargeItem{
			Name:   rs.itemName,
			Group:  circuits.GroupDataPath,
			Domain: desc.DomainVint,
			Cap:    rs.TotalCapPerWire(),
			Events: rs.Toggle * float64(rs.Wires) * scale,
		})
	}
	return items
}

// appendDataPathItems appends charge items for a data transfer of the
// given direction: each segment of the matching bus (including
// shared-data segments) sees every transferred bit once, charging
// toggle × bits events regardless of the bus width at that point.
func (m *Model) appendDataPathItems(items []circuits.ChargeItem, kind desc.SignalKind, bits int) []circuits.ChargeItem {
	for i := range m.Segments {
		rs := &m.Segments[i]
		if k := rs.Kind; k != kind && k != desc.SigDataShared {
			continue
		}
		items = append(items, circuits.ChargeItem{
			Name:   rs.itemName,
			Group:  circuits.GroupDataPath,
			Domain: desc.DomainVint,
			Cap:    rs.TotalCapPerWire(),
			Events: rs.Toggle * float64(bits),
		})
	}
	return items
}

// appendLogicItems appends the charge of the miscellaneous logic blocks
// that are active only during specific operations. A block toggles at its
// rate for every control-clock cycle the operation occupies: column
// commands keep the column and interface logic busy for the whole burst
// (BurstSlots cycles — eight internal column cycles on a BL8 SDR, half a
// data-clock burst on DDR3). Always-on blocks are background (see
// Background) and excluded here. Items take their names from logicNames
// (see appendCharges), so RecomputeCharges, which passes the live names,
// sees blocks renamed or added after Build.
func (m *Model) appendLogicItems(items []circuits.ChargeItem, op desc.Op, logicNames []string) []circuits.ChargeItem {
	slots := 1.0
	if op == desc.OpRead || op == desc.OpWrite {
		slots = float64(m.BurstSlots())
	}
	for i := range m.D.LogicBlocks {
		b := &m.D.LogicBlocks[i]
		if len(b.ActiveDuring) == 0 || !b.ActiveFor(op) {
			continue
		}
		cap := m.P.LogicGateCap(b, m.D.Technology.WireCapSignal)
		items = append(items, circuits.ChargeItem{
			Name:   logicNames[i],
			Group:  circuits.GroupLogic,
			Domain: desc.DomainVint,
			Cap:    cap,
			Events: b.Toggle * float64(b.Gates) * slots,
		})
	}
	return items
}

// Background is the continuously dissipated power: clock distribution at
// the data clock, the control bus at the control clock, always-on logic
// blocks at the control clock, and the constant current sink. This is the
// power of the no-operation state ("the clock is running and the control
// is operating", Section III.B.4).
type Background struct {
	Items []BackgroundItem
	// Power is the total, referred to the external supply.
	Power units.Power
}

// BackgroundItem is one continuous contribution with its Vdd-referred
// power.
type BackgroundItem struct {
	Name  string
	Group circuits.Group
	Power units.Power
}

// Background returns the background power of the model from the ledger
// cached at Build time. The returned struct shares its items with the
// model and must not be modified; callers that mutate the description in
// place must use RecomputeBackground.
func (m *Model) Background() Background { return m.background }

// RecomputeBackground rebuilds the background ledger from the current
// description state, bypassing the Build-time cache.
func (m *Model) RecomputeBackground() Background { return m.computeBackground(m.liveLogicNames()) }

// computeBackground builds the background ledger, naming the logic items
// from logicNames (see appendCharges). The items are gathered in a stack
// array and copied once into a slice of their exact length.
func (m *Model) computeBackground(logicNames []string) Background {
	var scratch [32]BackgroundItem
	items := scratch[:0]
	var total units.Power
	el := m.D.Electrical
	add := func(name string, group circuits.Group, p units.Power) {
		items = append(items, BackgroundItem{Name: name, Group: group, Power: p})
		total += p
	}

	for i := range m.Segments {
		rs := &m.Segments[i]
		var f units.Frequency
		switch rs.Kind {
		case desc.SigClock:
			f = m.D.Spec.DataClock
		case desc.SigControl:
			f = m.D.Spec.ControlClock
		default:
			continue
		}
		v, eff := el.DomainVoltageAndSafeEff(desc.DomainVint)
		e := float64(rs.TotalCapPerWire()) * float64(v) * float64(el.Vdd) *
			rs.Toggle * float64(rs.Wires) / eff
		group := circuits.GroupClock
		if rs.Kind == desc.SigControl {
			group = circuits.GroupDataPath
		}
		add(rs.itemName, group, units.Energy(e).PowerAt(f))
	}

	for i := range m.D.LogicBlocks {
		b := &m.D.LogicBlocks[i]
		if len(b.ActiveDuring) != 0 {
			continue
		}
		cap := m.P.LogicGateCap(b, m.D.Technology.WireCapSignal)
		v, eff := el.DomainVoltageAndSafeEff(desc.DomainVint)
		e := float64(cap) * float64(v) * float64(el.Vdd) * b.Toggle * float64(b.Gates) / eff
		add(logicNames[i], circuits.GroupLogic, units.Energy(e).PowerAt(m.D.Spec.ControlClock))
	}

	if el.ConstantCurrent > 0 {
		add("constant current", circuits.GroupStatic,
			units.Power(float64(el.ConstantCurrent)*float64(el.Vdd)))
	}
	bg := Background{Power: total}
	if len(items) > 0 {
		bg.Items = make([]BackgroundItem, len(items))
		copy(bg.Items, items)
	}
	return bg
}

// OpPower returns the power one operation contributes when issued every
// control-clock cycle: E_op × f_ctrl, with E_op the resolved (possibly
// calibrated) per-op energy. The pattern evaluation scales this by the
// operation's slot share, which is exactly the paper's "12.5% of the
// power associated with each of these commands" accounting.
func (m *Model) OpPower(op desc.Op) units.Power {
	return m.OpEnergy(op).PowerAt(m.D.Spec.ControlClock)
}

// PatternResult is the evaluation of a command pattern.
type PatternResult struct {
	Pattern desc.Pattern
	// Background is the continuous power.
	Background units.Power
	// Command is the pattern-weighted command power.
	Command units.Power
	// Power is the total average power.
	Power units.Power
	// Current is Power / Vdd.
	Current units.Current
	// BitsPerLoop counts data bits moved per loop traversal.
	BitsPerLoop int
	// EnergyPerBit is the average energy per transferred bit; 0 when the
	// pattern moves no data.
	EnergyPerBit units.Energy
	// ByOp is each operation's average power contribution (share × OpPower).
	ByOp map[desc.Op]units.Power
	// ByGroup splits the total average power by reporting group.
	ByGroup map[circuits.Group]units.Power
	// ByDomain splits the total average power by voltage domain. Constant
	// current and background wires/logic are attributed to their domains
	// (Vdd for the constant sink, Vint for wires and logic).
	ByDomain map[desc.Domain]units.Power
}

// EvaluatePattern computes the average power of the given pattern, one
// control-clock slot per loop entry, with its per-op, per-group and
// per-domain breakdown. Callers that need only the totals use
// PatternPower, which skips the breakdown.
func (m *Model) EvaluatePattern(p desc.Pattern) *PatternResult {
	res := &PatternResult{Pattern: p}
	mix := m.patternTotals(res, p.Counts(), len(p.Loop))
	m.patternBreakdown(res, mix)
	return res
}

// PatternPower returns the average power of the pattern: the Power field
// of EvaluatePattern, bit for bit, without building the breakdown.
func (m *Model) PatternPower(p desc.Pattern) units.Power {
	n := opCounts(p.Counts())
	return m.totals(&n, int64(len(p.Loop))).Power
}

// totals evaluates the scalar results of a loop of period slots in which
// each op occurs n[op] times, leaving Pattern and the breakdown maps nil.
func (m *Model) totals(n *opCounts, period int64) PatternResult {
	var res PatternResult
	m.patternTotals(&res, *n, int(period))
	return res
}

// patternTotals fills the scalar fields of res (Background, Command,
// Power, Current, BitsPerLoop, EnergyPerBit) for a loop of period slots
// in which each op occurs n[op] times, and returns the loop's slot
// shares. The totals come from the resolved parameter set (possibly
// calibrated).
func (m *Model) patternTotals(res *PatternResult, n [desc.NumOps]int, period int) [desc.NumOps]float64 {
	el := m.D.Electrical
	fctl := m.D.Spec.ControlClock
	mix := desc.Shares(n, period)
	res.Background = m.params.StandbyPower
	// Iterate in canonical op order: float accumulation must be
	// deterministic so repeated (and parallel) evaluations are
	// bit-identical.
	for _, op := range desc.AllOps {
		if share := mix[op]; op != desc.OpNop && share != 0 {
			res.Command += m.sharePower(op, share)
		}
	}
	res.Power = res.Background + res.Command
	if el.Vdd > 0 {
		res.Current = units.Current(float64(res.Power) / float64(el.Vdd))
	}

	bits := (n[desc.OpRead] + n[desc.OpWrite]) * m.BitsPerBurst()
	res.BitsPerLoop = bits
	if bits > 0 && fctl > 0 {
		loopTime := float64(period) / float64(fctl)
		res.EnergyPerBit = units.Energy(float64(res.Power) * loopTime / float64(bits))
	}
	return mix
}

// sharePower is op's average power contribution at the given slot share.
func (m *Model) sharePower(op desc.Op, share float64) units.Power {
	return units.Power(share) * units.Power(float64(m.params.OpEnergy[op])*float64(m.D.Spec.ControlClock))
}

// patternBreakdown fills res.ByOp, res.ByGroup and res.ByDomain. The
// breakdowns come from the derived charge ledgers, scaled by the
// calibration ratio so they track the resolved totals. Uncalibrated
// models have a ratio of exactly 1.0, and multiplying a float64 by 1.0
// is exact in IEEE-754, so the uncalibrated path stays bit-identical to
// the pre-pipeline code. A group or domain appears in its map when some
// background or command item touched it, even if its items sum to 0.
func (m *Model) patternBreakdown(res *PatternResult, mix [desc.NumOps]float64) {
	el := m.D.Electrical
	fctl := float64(m.D.Spec.ControlClock)
	var byGroup [circuits.NumGroups]units.Power
	var byDomain [desc.NumDomains]units.Power
	var groups [circuits.NumGroups]bool
	var domains [desc.NumDomains]bool

	bgScale := 1.0
	if m.params.StandbyPower != m.derived.StandbyPower && m.derived.StandbyPower != 0 {
		bgScale = float64(m.params.StandbyPower) / float64(m.derived.StandbyPower)
	}
	for _, it := range m.Background().Items {
		p := units.Power(float64(it.Power) * bgScale)
		dom := desc.DomainVint
		if it.Group == circuits.GroupStatic {
			dom = desc.DomainVdd
		}
		byGroup[it.Group] += p
		byDomain[dom] += p
		groups[it.Group], domains[dom] = true, true
	}

	res.ByOp = make(map[desc.Op]units.Power, desc.NumOps)
	for _, op := range desc.AllOps {
		share := mix[op]
		if op == desc.OpNop || share == 0 {
			continue
		}
		res.ByOp[op] += m.sharePower(op, share)
		oc := m.Charges(op)
		opE := m.params.OpEnergy[op]
		opScale := 1.0
		if opE != m.derived.OpEnergy[op] && m.derived.OpEnergy[op] != 0 {
			opScale = float64(opE) / float64(m.derived.OpEnergy[op])
		}
		// Only the groups and domains the op's items touch take a term:
		// an overlay can make opScale infinite, and 0 × Inf would turn a
		// group the op leaves alone into NaN.
		var opGroups [circuits.NumGroups]bool
		var opDomains [desc.NumDomains]bool
		for _, it := range oc.Items {
			opGroups[it.Group], opDomains[it.Domain] = true, true
		}
		for g, e := range oc.EnergyByGroup(el) {
			if opGroups[g] {
				byGroup[g] += units.Power(share * float64(e) * opScale * fctl)
				groups[g] = true
			}
		}
		for dom, e := range oc.EnergyByDomain(el) {
			if opDomains[dom] {
				byDomain[dom] += units.Power(share * float64(e) * opScale * fctl)
				domains[dom] = true
			}
		}
	}

	res.ByGroup = make(map[circuits.Group]units.Power, circuits.NumGroups)
	for g, touched := range groups {
		if touched {
			res.ByGroup[circuits.Group(g)] = byGroup[g]
		}
	}
	res.ByDomain = make(map[desc.Domain]units.Power, desc.NumDomains)
	for dom, touched := range domains {
		if touched {
			res.ByDomain[desc.Domain(dom)] = byDomain[dom]
		}
	}
}

// Evaluate evaluates the description's own pattern.
func (m *Model) Evaluate() *PatternResult {
	return m.EvaluatePattern(m.D.Pattern)
}
