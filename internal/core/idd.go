package core

import (
	"slices"
	"sync"

	"drampower/internal/desc"
	"drampower/internal/timing"
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
	// spacing the row timings (tRRD, tFAW, tRC) and the data bus admit.
	IDD7 units.Current
}

// The measurement loops are command loops (Section III.B.4) placed by the
// timing rulebook the trace simulator checks with: every command goes at
// the earliest slot the rulebook allows, one command per slot because the
// pattern language holds one op per slot, and a command whose slot is
// taken moves to the next free slot. A placement hands one period's
// commands to a Put, at the slots a replay from an idle channel issues
// them at, and returns the period; each further period repeats them
// period slots later.

// Put receives one command of a placed loop: its slot, op and bank.
type Put func(slot int64, op desc.Op, bank int)

// PlaceIDD0 places the IDD0 loop: an activate of one bank, its precharge
// at tRAS and the next activate at the row cycle (or where tRRD or tFAW
// binds). It is the IDD7 rotation over one bank, without columns.
func (m *Model) PlaceIDD0(put Put) int64 {
	return m.placed(func(p *placer) int64 { return p.idd0(put) })
}

// PlaceIDD4 places the gapless-burst loop of reads (write=false) or
// writes (write=true): after an activate of bank 0 at slot 0 opens the
// row (it is not part of the loop), one column command per ColumnAt step,
// which is the burst.
func (m *Model) PlaceIDD4(write bool, put Put) int64 {
	return m.placed(func(p *placer) int64 { return p.idd4(write, put) })
}

// PlaceIDD5 places the refresh loop: one all-bank refresh per RefreshAt
// step, the refresh cycle time (tRFC).
func (m *Model) PlaceIDD5(put Put) int64 {
	return m.placed(func(p *placer) int64 { return p.idd5(put) })
}

// PlaceIDD7 places the bank-interleaved loop: activates rotating over
// every bank at one uniform spacing, each followed by
// BurstsPerActivation column bursts to the open row and a precharge after
// the last burst. writeShare selects the fraction of column commands that
// are writes; the paper's Figure 10 pattern uses 0.5 ("Idd7 but half of
// the read operations replaced by write operations"), the plain IDD7 0.
func (m *Model) PlaceIDD7(writeShare float64, put Put) int64 {
	return m.placed(func(p *placer) int64 { return p.idd7(writeShare, put) })
}

// placer is the scratch state of a placement: the rulebook, the slots
// taken (bit s&63 of used[s>>6] for slot s) and a rotation's last copy,
// op and offset per command. Placers are pooled, so a placement
// allocates nothing once the pool is warm.
type placer struct {
	t     timing.Timing
	banks int
	r     timing.Rules
	used  []uint64
	ops   []desc.Op
	offs  []int64
}

var placers = sync.Pool{New: func() any { return new(placer) }}

// placer takes a pooled placer for m's device; placers.Put returns it.
func (m *Model) placer() *placer {
	p := placers.Get().(*placer)
	p.t, p.banks = timing.For(m.D.Spec), m.D.Spec.Banks()
	return p
}

// placed runs place on a pooled placer for m's device.
func (m *Model) placed(place func(*placer) int64) int64 {
	p := m.placer()
	defer placers.Put(p)
	return place(p)
}

// reset makes p an idle channel with no slot taken.
func (p *placer) reset() {
	p.r.Reset(p.t, p.banks)
	p.used = p.used[:0]
}

// take marks the first free slot at or after at taken and returns it.
func (p *placer) take(at int64) int64 {
	for ; ; at++ {
		w := int(at >> 6)
		for w >= len(p.used) {
			p.used = append(p.used, 0)
		}
		if bit := uint64(1) << (at & 63); p.used[w]&bit == 0 {
			p.used[w] |= bit
			return at
		}
	}
}

func (p *placer) idd0(put Put) int64 { return p.rotate(1, false, 0, put) }

func (p *placer) idd7(writeShare float64, put Put) int64 {
	return p.rotate(p.banks, true, writeShare, put)
}

func (p *placer) idd4(write bool, put Put) int64 {
	p.reset()
	op := desc.OpRead
	if write {
		op = desc.OpWrite
	}
	p.r.Activate(0, 0, p.take(0))
	at := p.take(p.r.ColumnAt(0))
	p.r.Column(0, at)
	put(at, op, 0)
	return p.r.ColumnAt(0) - at
}

func (p *placer) idd5(put Put) int64 {
	p.reset()
	at := p.take(max(0, p.r.RefreshAt()))
	p.r.Refresh(at)
	put(at, desc.OpRefresh, 0)
	return p.r.RefreshAt() - at
}

// rotate places a rotation over banks banks: bank b of copy k is
// activated at slot (k·banks + b)·spacing, or at the next slot the
// rulebook allows, given the bursts the spacing fits (when cols is set)
// and precharged. The spacing is the smallest whose copies settle (see
// rotation), never below the loop's own act and pre slots plus one burst
// when it has columns. rotate puts the settled copy and returns its
// period.
func (p *placer) rotate(banks int, cols bool, writeShare float64, put Put) int64 {
	// A burst takes its command slot and its burst slots of the data bus,
	// counted as at least two, so that the command bus keeps room for the
	// activates and precharges.
	burst := max(2, p.t.Burst)
	bursts := func(spacing int64) int {
		switch {
		case !cols:
			return 0
		case banks == 1:
			// One bank cannot hide its tRCD and tRP behind other banks'
			// bursts, so it runs one burst per activate.
			return 1
		}
		// Round to the nearest burst count: the precharge may overlap the
		// last burst's tail, so a spacing that fits one and a half bursts
		// runs two.
		return int(max(1, (spacing-2+burst/2)/burst))
	}
	spacing := int64(2)
	if cols {
		spacing += p.t.Burst
	}
	for spacing = p.turns(banks, spacing, bursts); !p.rotation(banks, bursts(spacing), spacing, writeShare); {
		spacing++
	}
	perBank := bursts(spacing) + 2
	for i, op := range p.ops {
		put(p.offs[i], op, i/perBank)
	}
	return int64(banks) * spacing
}

// turns returns the smallest spacing, from spacing on, at which the
// rotation's activates keep their turns on an idle channel: bank 0's
// group (its activate, bursts and precharge) at slot 0, then activate j,
// on bank j mod banks, legal at slot j·spacing, up to activate
// max(banks, 4). Every spacing that settles keeps the turns: a settled
// rotation's activates average one per spacing slots, which tRRD, tFAW
// and tRC bound, and bank 0's next turn waits for its own group. Where
// activate j's earliest legal slot q misses its turn, the next spacing is
// at least q/j, since q only grows with the spacing.
func (p *placer) turns(banks int, spacing int64, bursts func(int64) int) int64 {
	r := &p.r
turns:
	for {
		p.reset()
		r.Activate(0, 0, 0)
		for range bursts(spacing) {
			r.Column(0, r.ColumnAt(0))
		}
		r.Precharge(0, r.PrechargeAt(0))
		for j := 1; j <= max(banks, 4); j++ {
			at, b := int64(j)*spacing, j%banks
			if q := r.ActivateAt(b); q > at {
				spacing = (q + int64(j) - 1) / int64(j)
				continue turns
			}
			r.Activate(b, 0, at)
		}
		return spacing
	}
}

// rotation places copies of a rotation from an idle channel and reports
// whether it settles: from the second copy on, or from the third if the
// first, which starts idle, differs, every command lands exactly one
// period after the same command in the copy before. A rotation repeats
// for good once enough settled copies chain for tFAW's window of four
// activates, so rotations over fewer than four banks chain more copies.
// p.ops and p.offs hold the last copy, at offsets from its first turn.
func (p *placer) rotation(banks, bursts int, spacing int64, writeShare float64) bool {
	p.reset()
	r := &p.r
	n := banks * (bursts + 2)
	p.ops = slices.Grow(p.ops[:0], n)[:n]
	p.offs = slices.Grow(p.offs[:0], n)[:n]
	ops, offs := p.ops, p.offs
	chain := (4 + banks - 1) / banks
	for k, from := 0, 1; k < from+chain; k++ {
		start := int64(k) * int64(banks) * spacing
		i, writesOwed := 0, 0.0
		// settles records the copy's next command, op at slot at, and
		// reports whether the copy may still settle.
		settles := func(op desc.Op, at int64) bool {
			off := at - start
			if k >= from && offs[i] != off {
				if k != 1 {
					return false
				}
				from = 2
			}
			ops[i], offs[i] = op, off
			i++
			return true
		}
		for b := range banks {
			at := p.take(max(start+int64(b)*spacing, r.ActivateAt(b)))
			r.Activate(b, 0, at)
			if !settles(desc.OpActivate, at) {
				return false
			}
			col := desc.OpRead
			if writesOwed += writeShare; writesOwed >= 0.5 {
				col = desc.OpWrite
				writesOwed--
			}
			for range bursts {
				at = p.take(r.ColumnAt(b))
				r.Column(b, at)
				if !settles(col, at) {
					return false
				}
			}
			at = p.take(r.PrechargeAt(b))
			r.Precharge(b, at)
			if !settles(desc.OpPrecharge, at) {
				return false
			}
		}
	}
	return true
}

// BurstsPerActivation returns the number of column bursts the interleaved
// IDD7 loop issues per activation: as many as fit between consecutive
// activates at the spacing the rulebook admits (see PlaceIDD7).
// Activation rates are pinned by row timings (tRRD, tFAW, tRC) that
// barely changed across generations, while the per pin bandwidth doubled
// with every interface — so the bursts per activation grow from 1 (SDR)
// to several (DDR4/DDR5), which is exactly the shift of power "from the
// activate and precharge operation to the read and write operation" that
// Section IV.B describes.
func (m *Model) BurstsPerActivation() int {
	var n opCounts
	m.PlaceIDD7(0, n.put)
	return n[desc.OpRead] / m.D.Spec.Banks()
}

// opCounts tallies the ops of a loop.
type opCounts [desc.NumOps]int

func (n *opCounts) put(_ int64, op desc.Op, _ int) { n[op]++ }

// draw draws a placed loop in the pattern language: one op per slot of
// its period, from its first command on.
func draw(place func(Put) int64) desc.Pattern {
	var slots []int64
	var ops []desc.Op
	period := place(func(slot int64, op desc.Op, _ int) {
		slots, ops = append(slots, slot), append(ops, op)
	})
	loop := make([]desc.Op, period)
	for i, op := range ops {
		loop[((slots[i]-slots[0])%period+period)%period] = op
	}
	return desc.Pattern{Loop: loop}
}

// PatternIDD0 returns the IDD0 loop PlaceIDD0 places.
func (m *Model) PatternIDD0() desc.Pattern { return draw(m.PlaceIDD0) }

// PatternIDD4 returns the IDD4 loop PlaceIDD4 places.
func (m *Model) PatternIDD4(write bool) desc.Pattern {
	return draw(func(put Put) int64 { return m.PlaceIDD4(write, put) })
}

// PatternIDD5 returns the IDD5 loop PlaceIDD5 places.
func (m *Model) PatternIDD5() desc.Pattern { return draw(m.PlaceIDD5) }

// PatternIDD7 returns the IDD7 loop PlaceIDD7 places.
func (m *Model) PatternIDD7(writeShare float64) desc.Pattern {
	return draw(func(put Put) int64 { return m.PlaceIDD7(writeShare, put) })
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
	var rd, wr opCounts
	erd := m.totals(&rd, m.PlaceIDD4(false, rd.put)).EnergyPerBit
	ewr := m.totals(&wr, m.PlaceIDD4(true, wr.put)).EnergyPerBit
	return units.Energy(0.5 * (float64(erd) + float64(ewr)))
}

// EnergyPerBitIDD7 returns the energy per transferred bit in the
// interleaved activate/read/write pattern of Figure 10/13 (half reads,
// half writes), the metric the paper reports in mW/Gbps = pJ/bit.
func (m *Model) EnergyPerBitIDD7() units.Energy {
	var n opCounts
	return m.totals(&n, m.PlaceIDD7(0.5, n.put)).EnergyPerBit
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
