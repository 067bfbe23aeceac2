// Package desc implements the DRAM description language of Vogelsang
// (MICRO 2010), Section III.B. A Description captures everything Table I of
// the paper lists: the physical floorplan, the signaling floorplan, the
// technology, the interface specification, the basic electrical information,
// the peripheral ("miscellaneous") logic blocks and the command pattern.
//
// Descriptions are usually read from an input file (see Parse) whose syntax
// follows the excerpts printed in the paper:
//
//	FloorplanPhysical
//	  CellArray BL=v BitsPerBL=512 BLtype=open
//	  CellArray WLpitch=165nm BLpitch=110nm
//	  Vertical blocks = A1 P1 P2 P1 A1
//	  SizeVertical A1=3396um P1=200um P2=530um
//	FloorplanSignaling
//	  DataW0 inside=0_2 fraction=25% dir=h mux=1:8
//	  DataW1 start=0_2 end=3_2 PchW=19.2um NchW=9.6um
//	Specification
//	  IO width=16 datarate=1.6Gbps
//	  Pattern loop= act nop wrt nop rd nop pre nop
//
// The package is pure data: geometric reasoning lives in package geom and
// the power calculation in package core.
package desc

import (
	"fmt"
	"maps"
	"strings"

	"drampower/internal/units"
)

// Axis selects one of the two floorplan directions.
type Axis int

// Floorplan axes. Horizontal runs along the pad row / center stripe,
// Vertical is perpendicular to it (see Figure 1 of the paper).
const (
	Horizontal Axis = iota
	Vertical
)

// String returns "h" or "v".
func (a Axis) String() string {
	if a == Horizontal {
		return "h"
	}
	return "v"
}

// ParseAxis parses "h"/"horizontal" or "v"/"vertical".
func ParseAxis(s string) (Axis, error) {
	switch strings.ToLower(s) {
	case "h", "horizontal":
		return Horizontal, nil
	case "v", "vertical":
		return Vertical, nil
	}
	return 0, fmt.Errorf("desc: bad axis %q (want h or v)", s)
}

// BitlineArch distinguishes the two classical cell-array organizations.
type BitlineArch int

// Bitline architectures. Folded pairs true and complement bitline in the
// same sub-array (8F² cells); Open senses against a bitline in the adjacent
// sub-array (6F² cells and denser, the mainstream choice from 75 nm on).
const (
	Folded BitlineArch = iota
	Open
)

// String returns "folded" or "open".
func (b BitlineArch) String() string {
	if b == Folded {
		return "folded"
	}
	return "open"
}

// ParseBitlineArch parses "folded" or "open".
func ParseBitlineArch(s string) (BitlineArch, error) {
	switch strings.ToLower(s) {
	case "folded":
		return Folded, nil
	case "open":
		return Open, nil
	}
	return 0, fmt.Errorf("desc: bad bitline architecture %q (want folded or open)", s)
}

// Op is one of the basic DRAM operations the model distinguishes
// (Section III.B.4 of the paper).
type Op int

// The basic operations. Power is first calculated per operation and then
// combined according to the pattern's mix.
const (
	OpNop Op = iota
	OpActivate
	OpPrecharge
	OpRead
	OpWrite
	OpRefresh
)

// AllOps lists every operation in display order.
var AllOps = []Op{OpNop, OpActivate, OpPrecharge, OpRead, OpWrite, OpRefresh}

// NumOps is the number of distinct operations. Op values are contiguous
// in [0, NumOps), so fixed arrays indexed by Op ([NumOps]T) are valid
// per-op ledgers; the power engine and the trace simulator use such
// arrays on their hot paths instead of maps.
const NumOps = int(OpRefresh) + 1

// Valid reports whether the operation is one of the defined ops, i.e. a
// safe index into a [NumOps]T ledger.
func (o Op) Valid() bool { return o >= 0 && int(o) < NumOps }

var opNames = map[Op]string{
	OpNop: "nop", OpActivate: "act", OpPrecharge: "pre",
	OpRead: "rd", OpWrite: "wrt", OpRefresh: "ref",
}

// String returns the pattern-language mnemonic of the operation.
func (o Op) String() string { return opNames[o] }

// ParseOp parses a pattern mnemonic ("act", "pre", "rd", "wrt", "nop",
// "ref"); a few aliases ("read", "write", "activate", "precharge",
// "refresh") are accepted.
func ParseOp(s string) (Op, error) {
	switch strings.ToLower(s) {
	case "nop":
		return OpNop, nil
	case "act", "activate":
		return OpActivate, nil
	case "pre", "precharge":
		return OpPrecharge, nil
	case "rd", "read":
		return OpRead, nil
	case "wrt", "wr", "write":
		return OpWrite, nil
	case "ref", "refresh":
		return OpRefresh, nil
	}
	return 0, fmt.Errorf("desc: unknown operation %q", s)
}

// ParsePattern parses a space-separated op list ("act nop rd pre") with
// ParseOp; an empty list is an error.
func ParsePattern(s string) ([]Op, error) {
	var loop []Op
	for _, tok := range strings.Fields(s) {
		op, err := ParseOp(tok)
		if err != nil {
			return nil, err
		}
		loop = append(loop, op)
	}
	if len(loop) == 0 {
		return nil, fmt.Errorf("empty pattern")
	}
	return loop, nil
}

// BlockRef addresses a block in the floorplan grid by its X (horizontal)
// and Y (vertical) index; the sample DRAM of the paper numbers blocks 0–6
// in x and 0–4 in y. The textual form is "x_y", e.g. "0_2".
type BlockRef struct {
	X, Y int
}

// String returns the "x_y" form.
func (b BlockRef) String() string { return fmt.Sprintf("%d_%d", b.X, b.Y) }

// ParseBlockRef parses the "x_y" form.
func ParseBlockRef(s string) (BlockRef, error) {
	var b BlockRef
	if _, err := fmt.Sscanf(s, "%d_%d", &b.X, &b.Y); err != nil {
		return b, fmt.Errorf("desc: bad block reference %q (want x_y)", s)
	}
	if b.X < 0 || b.Y < 0 {
		return b, fmt.Errorf("desc: negative block reference %q", s)
	}
	return b, nil
}

// Floorplan is the physical floorplan group of Table I. The grid is given
// by the ordered block-name lists along each axis together with a size per
// distinct block name; array blocks (banks) are the blocks whose name
// starts with "A".
type Floorplan struct {
	// BitlineDir is the direction bitlines run in (parallel or
	// perpendicular to the pad row).
	BitlineDir Axis
	// BitsPerBitline is the number of cells along one local bitline
	// (typically 256–512).
	BitsPerBitline int
	// BitsPerLocalWordline is the number of cells driven by one local
	// (sub-) wordline.
	BitsPerLocalWordline int
	// Arch selects folded or open bitline sensing.
	Arch BitlineArch
	// BlocksPerCSL is the number of array blocks sharing a column select
	// line.
	BlocksPerCSL int
	// WordlinePitch is the cell pitch along the bitline direction.
	WordlinePitch units.Length
	// BitlinePitch is the cell pitch along the wordline direction.
	BitlinePitch units.Length
	// BLSAStripeWidth is the width of a bitline sense-amplifier stripe.
	BLSAStripeWidth units.Length
	// LWDStripeWidth is the width of a local wordline driver stripe.
	LWDStripeWidth units.Length
	// HorizontalBlocks and VerticalBlocks name the blocks along each axis
	// in order; indices into these slices are the BlockRef coordinates.
	HorizontalBlocks []string
	VerticalBlocks   []string
	// BlockWidth and BlockHeight give the extent of each distinct block
	// name along the horizontal and vertical axis respectively.
	BlockWidth  map[string]units.Length
	BlockHeight map[string]units.Length
	// ActivationFraction is the share of the row's local wordlines (and
	// hence sense amplifiers) raised per activate command. Commodity
	// DRAMs activate the full row (1); selective-bitline-activation and
	// single-sub-array schemes (Section V, Udipi et al.) activate a
	// fraction. 0 means the default of 1.
	ActivationFraction float64
}

// EffectiveActivation returns the activation fraction, defaulting to 1.
func (f *Floorplan) EffectiveActivation() float64 {
	if f.ActivationFraction <= 0 {
		return 1
	}
	return f.ActivationFraction
}

// IsArrayBlock reports whether the named block is a cell array block
// (a bank). By convention array blocks are named with a leading 'A'.
func IsArrayBlock(name string) bool {
	return len(name) > 0 && (name[0] == 'A' || name[0] == 'a')
}

// SignalKind classifies a signal bus by its role, which determines when it
// toggles and how many wires it has.
type SignalKind int

// Signal bus kinds.
const (
	SigDataWrite  SignalKind = iota // write data path (pad -> array)
	SigDataRead                     // read data path (array -> pad)
	SigDataShared                   // bidirectional / shared data bus
	SigClock                        // clock distribution
	SigControl                      // command/control signals
	SigAddrRow                      // row address bus
	SigAddrCol                      // column address bus
	SigAddrBank                     // bank address bus
)

var signalKindNames = map[SignalKind]string{
	SigDataWrite: "DataW", SigDataRead: "DataR", SigDataShared: "Data",
	SigClock: "Clk", SigControl: "Ctrl", SigAddrRow: "AddrRow",
	SigAddrCol: "AddrCol", SigAddrBank: "AddrBank",
}

// String returns the bus-name prefix of the kind.
func (k SignalKind) String() string { return signalKindNames[k] }

// KindForBus derives the signal kind from a bus name such as "DataW3" or
// "AddrRow0". Longest-prefix match, case sensitive like the paper's input.
func KindForBus(name string) (SignalKind, error) {
	prefixes := []struct {
		p string
		k SignalKind
	}{
		{"DataW", SigDataWrite}, {"DataR", SigDataRead},
		{"AddrRow", SigAddrRow}, {"AddrCol", SigAddrCol},
		{"AddrBank", SigAddrBank},
		{"Data", SigDataShared}, {"Clk", SigClock}, {"Ctrl", SigControl},
		{"Cmd", SigControl},
	}
	for _, pf := range prefixes {
		if strings.HasPrefix(name, pf.p) {
			return pf.k, nil
		}
	}
	return 0, fmt.Errorf("desc: cannot classify signal %q (known prefixes: DataW, DataR, Data, Clk, Ctrl, AddrRow, AddrCol, AddrBank)", name)
}

// Segment is one signal wire segment of the signaling floorplan
// (Section III.B.2). A segment is either inside a single block (relative
// length and direction given) or spans from one block center to another.
type Segment struct {
	// Name is the full segment name from the input, e.g. "DataW1".
	Name string
	// Kind is derived from the name prefix.
	Kind SignalKind
	// Inside-form: the segment lies inside block Inside with length
	// Fraction × (block extent along Dir).
	Inside   *BlockRef
	Fraction float64
	Dir      Axis
	// Span-form: the segment runs from the center of Start to the center
	// of End (Manhattan routing).
	Start, End *BlockRef
	// BufNWidth/BufPWidth give the driver/buffer device widths inserted at
	// the head of this segment (0 = no buffer).
	BufNWidth, BufPWidth units.Length
	// MuxRatio, when > 1, marks a serialization change: downstream of this
	// segment the bus is MuxRatio× wider and MuxRatio× slower (a 1:8
	// deserializer has MuxRatio 8).
	MuxRatio int
	// Toggle is the average number of charging events per relevant clock
	// cycle on each wire of this segment; < 0 selects the kind default.
	Toggle float64
	// Wires overrides the derived wire count of the segment (0 = derive
	// from the specification and the bus kind).
	Wires int
	// ActiveFrac is the average fraction of the segment's wire length that
	// is charged per event: segmented buses with cut-off switches (Jeong
	// et al., Section V) drive only the stretch up to the target bank.
	// 0 means the default of 1 (the full wire switches).
	ActiveFrac float64
}

// EffectiveActiveFrac returns the active wire fraction, defaulting to 1.
func (s *Segment) EffectiveActiveFrac() float64 {
	if s.ActiveFrac <= 0 {
		return 1
	}
	return s.ActiveFrac
}

// DefaultToggle returns the default charging-event rate per clock cycle for
// a bus kind: a clock wire charges once per cycle; random data charges a
// wire on average every fourth bit time; addresses and control toggle less.
func DefaultToggle(k SignalKind) float64 {
	switch k {
	case SigClock:
		return 1.0
	case SigDataRead, SigDataWrite, SigDataShared:
		return 0.25
	case SigAddrRow, SigAddrCol, SigAddrBank:
		return 0.25
	case SigControl:
		return 0.125
	}
	return 0.25
}

// Technology is the technology group of Table I: the 39 parameters that
// describe the process the DRAM is built in.
type Technology struct {
	// Gate oxide (equivalent) thicknesses.
	GateOxideLogic units.Length // general logic transistors
	GateOxideHV    units.Length // high voltage (Vpp domain) transistors
	GateOxideCell  units.Length // cell access transistor

	// Channel lengths and junction capacitances.
	MinGateLengthLogic units.Length
	JunctionCapLogic   units.CapacitancePerLength // per meter of device width
	MinGateLengthHV    units.Length
	JunctionCapHV      units.CapacitancePerLength
	CellAccessLength   units.Length
	CellAccessWidth    units.Length

	// Array capacitances.
	BitlineCap       units.Capacitance
	CellCap          units.Capacitance
	BitlineToWLShare float64 // share of bitline cap coupling to the wordline
	BitsPerCSL       int     // bits accessed per column select line pulse

	// Master wordline path.
	WireCapMWL         units.CapacitancePerLength
	MWLPredecodeRatio  float64      // pre-decode ratio master wordline
	MWLDecoderNMOS     units.Length // gate width, master WL decoder pull-down
	MWLDecoderPMOS     units.Length
	MWLDecoderActivity float64 // average switching of MWL decoder per ACT

	// Wordline controller loads and sub-wordline driver (Figure 3).
	WLControlLoadNMOS units.Length
	WLControlLoadPMOS units.Length
	SWDriverNMOS      units.Length
	SWDriverPMOS      units.Length
	SWDriverRestore   units.Length
	WireCapLWL        units.CapacitancePerLength

	// Bitline sense-amplifier devices (Figure 2); widths and lengths.
	BLSASenseNMOSWidth  units.Length
	BLSASenseNMOSLength units.Length
	BLSASensePMOSWidth  units.Length
	BLSASensePMOSLength units.Length
	BLSAEqualizeWidth   units.Length
	BLSAEqualizeLength  units.Length
	BLSABitSwitchWidth  units.Length
	BLSABitSwitchLength units.Length
	BLSAMuxWidth        units.Length // folded bitline only
	BLSAMuxLength       units.Length
	BLSANSetWidth       units.Length
	BLSANSetLength      units.Length
	BLSAPSetWidth       units.Length
	BLSAPSetLength      units.Length

	// General signal wiring.
	WireCapSignal units.CapacitancePerLength
}

// Specification is the interface specification group of Table I.
type Specification struct {
	IOWidth          int             // number of DQ pins
	DataRate         units.DataRate  // per DQ pin
	ClockWires       int             // clock wires on die
	DataClock        units.Frequency // data clock frequency
	ControlClock     units.Frequency // control/command clock frequency
	BankAddrBits     int
	RowAddrBits      int
	ColAddrBits      int
	MiscCtrlSignals  int
	BurstLength      int            // bits per DQ per column command (0 = prefetch)
	RowCycle         units.Duration // tRC, row cycle time
	RowToColumnDelay units.Duration // tRCD (optional; used by trace engine)
	PrechargeTime    units.Duration // tRP (optional)
	CASLatency       units.Duration // CL (optional)
	FourBankWindow   units.Duration // tFAW (optional)
	RowToRowDelay    units.Duration // tRRD (optional)
	RefreshInterval  units.Duration // tREFI (optional)
	RefreshCycle     units.Duration // tRFC (optional)
}

// Prefetch returns the serialization factor between the pin data rate and
// the internal core clock: datarate / dataclock (e.g. 8 for DDR3-1600 with
// an 800 MHz data clock driving a 200 MHz core... the paper's definition is
// per the 1:n deserializer in the data path; here it is the ratio of pin
// bit rate to control clock).
func (s Specification) Prefetch() int {
	if s.ControlClock == 0 {
		return 1
	}
	p := int(float64(s.DataRate)/float64(s.ControlClock) + 0.5)
	if p < 1 {
		p = 1
	}
	return p
}

// PageBits returns the number of bits held by one open page (sensed per
// activate): 2^ColAddrBits column addresses × IOWidth bits each.
func (s Specification) PageBits() int {
	return (1 << uint(s.ColAddrBits)) * s.IOWidth
}

// Banks returns the number of banks (2^BankAddrBits).
func (s Specification) Banks() int { return 1 << uint(s.BankAddrBits) }

// MaxBankAddrBits bounds Specification.BankAddrBits in Validate. Build
// and replay work grows with the bank count, and the largest shipped
// device has 5 bank bits (32 banks), so 8 (256 banks) leaves room.
const MaxBankAddrBits = 8

// MaxAddrBits bounds Specification.RowAddrBits and ColAddrBits in
// Validate, and every address field of the controller's mapper (package
// ctl): 2^30 rows or columns keep each row index and page size within an
// int on every platform, where rowadd=63 made the trace generators draw
// rows below a negative count. The largest shipped device has 17 row bits.
const MaxAddrBits = 30

// Electrical is the basic electrical information group of Table I: the four
// voltage domains of Section III.A plus generator efficiencies and the
// constant reference-current sink.
type Electrical struct {
	Vdd  units.Voltage // external supply
	Vint units.Voltage // general logic supply
	Vbl  units.Voltage // bitline (cell restore) voltage
	Vpp  units.Voltage // boosted wordline voltage

	// Generator charge-transfer efficiencies: the domain charge divided
	// by the charge drawn from Vdd to deliver it. A series regulator
	// passes charge through (η ≈ 0.9–1); a Vpp charge-pump doubler draws
	// two units of supply charge per unit delivered (η ≈ 0.5).
	EffInt float64
	EffBl  float64
	EffPp  float64

	// ConstantCurrent is a constant sink from Vdd (references, power
	// system housekeeping).
	ConstantCurrent units.Current
}

// DomainVoltageAndEff returns the voltage and generator efficiency of the
// named domain.
func (e Electrical) DomainVoltageAndEff(d Domain) (units.Voltage, float64) {
	switch d {
	case DomainVdd:
		return e.Vdd, 1
	case DomainVint:
		return e.Vint, e.EffInt
	case DomainVbl:
		return e.Vbl, e.EffBl
	case DomainVpp:
		return e.Vpp, e.EffPp
	}
	return 0, 1
}

// DomainVoltageAndSafeEff returns the voltage and generator efficiency of
// the named domain with the efficiency clamped to a usable value: a zero
// or negative efficiency (an unparameterized generator) falls back to 1,
// i.e. the domain charge passes through to the external supply
// unamplified. This is the single place the power engine's "eff <= 0"
// fallback lives; every Vdd-referred energy roll-up uses it.
func (e Electrical) DomainVoltageAndSafeEff(d Domain) (units.Voltage, float64) {
	v, eff := e.DomainVoltageAndEff(d)
	if eff <= 0 {
		eff = 1
	}
	return v, eff
}

// Domain identifies one of the four supply domains of the model.
type Domain int

// The four voltage domains (Section III.A).
const (
	DomainVdd Domain = iota
	DomainVint
	DomainVbl
	DomainVpp
)

// AllDomains lists the domains in display order.
var AllDomains = []Domain{DomainVdd, DomainVint, DomainVbl, DomainVpp}

// NumDomains is the number of voltage domains; Domain values are
// contiguous in [0, NumDomains), so [NumDomains]T arrays index by Domain.
const NumDomains = int(DomainVpp) + 1

var domainNames = map[Domain]string{
	DomainVdd: "Vdd", DomainVint: "Vint", DomainVbl: "Vbl", DomainVpp: "Vpp",
}

// String returns the conventional domain name.
func (d Domain) String() string { return domainNames[d] }

// LogicBlock models one miscellaneous peripheral logic block
// (Section III.B.5): command/address decode, clock synchronization, test
// logic. The gate count is the fit parameter the paper uses to calibrate
// the model against datasheet values.
type LogicBlock struct {
	Name string
	// Gates is the number of toggling gates in the block.
	Gates int
	// AvgNMOSWidth / AvgPMOSWidth are the average device widths.
	AvgNMOSWidth units.Length
	AvgPMOSWidth units.Length
	// TransistorsPerGate is the average transistor count per gate.
	TransistorsPerGate float64
	// GateDensity is the coverage of the block area with transistor gates;
	// WiringDensity the coverage with local wiring. Together with the gate
	// count they determine the block's area and hence its wire load.
	GateDensity   float64
	WiringDensity float64
	// ActiveDuring lists the operations in which the block toggles; an
	// empty list means the block is always active (clock tree etc.).
	ActiveDuring []Op
	// Toggle is the block's switching rate relative to the control clock.
	Toggle float64
}

// ActiveFor reports whether the block dissipates during op. Blocks with an
// empty ActiveDuring list are active during every operation including nop.
func (b LogicBlock) ActiveFor(op Op) bool {
	if len(b.ActiveDuring) == 0 {
		return true
	}
	for _, o := range b.ActiveDuring {
		if o == op {
			return true
		}
	}
	return false
}

// Pattern is the repeating command loop whose average power the model
// reports (Section III.B.4).
type Pattern struct {
	Loop []Op
}

// Mix returns the fraction of pattern slots occupied by each operation,
// indexed by Op. A slot holding an invalid op still counts toward the
// loop length but is not attributed to any operation.
func (p Pattern) Mix() [NumOps]float64 { return Shares(p.Counts(), len(p.Loop)) }

// Counts returns how often each valid operation occurs in the loop.
func (p Pattern) Counts() [NumOps]int {
	var n [NumOps]int
	for _, op := range p.Loop {
		if op.Valid() {
			n[op]++
		}
	}
	return n
}

// Shares returns the slot shares of a loop of period slots in which each
// operation op occurs n[op] times. A share adds 1/period once per
// occurrence rather than multiplying, so a loop's shares are the same
// float64 values whether they come from its drawn slots or its counts.
func Shares(n [NumOps]int, period int) [NumOps]float64 {
	var m [NumOps]float64
	if period == 0 {
		return m
	}
	inc := 1 / float64(period)
	for op, k := range n {
		for range k {
			m[op] += inc
		}
	}
	return m
}

// String renders the loop in input-language form.
func (p Pattern) String() string {
	parts := make([]string, len(p.Loop))
	for i, op := range p.Loop {
		parts[i] = op.String()
	}
	return strings.Join(parts, " ")
}

// Description is a complete DRAM description: everything the power model
// needs, organized in the five groups of Table I.
type Description struct {
	// Name identifies the device, e.g. "1G-DDR3-x16-55nm".
	Name string

	Floorplan   Floorplan
	Signals     []Segment
	Technology  Technology
	Spec        Specification
	Electrical  Electrical
	LogicBlocks []LogicBlock
	Pattern     Pattern
}

// Clone returns a deep copy of the description. The sensitivity sweep and
// the scheme evaluations mutate clones rather than the original. The
// copy makes few allocations: every segment BlockRef lives in one slice,
// and every ActiveDuring list and the pattern loop in another, each list
// a capacity-capped window so an append to it cannot reach its
// neighbour's elements. An empty block-name, ActiveDuring or pattern
// list clones to nil.
func (d *Description) Clone() *Description {
	c := *d
	c.Floorplan.HorizontalBlocks = append([]string(nil), d.Floorplan.HorizontalBlocks...)
	c.Floorplan.VerticalBlocks = append([]string(nil), d.Floorplan.VerticalBlocks...)
	c.Floorplan.BlockWidth = maps.Clone(d.Floorplan.BlockWidth)
	c.Floorplan.BlockHeight = maps.Clone(d.Floorplan.BlockHeight)

	nrefs := 0
	for i := range d.Signals {
		s := &d.Signals[i]
		for _, r := range [...]*BlockRef{s.Inside, s.Start, s.End} {
			if r != nil {
				nrefs++
			}
		}
	}
	refs := make([]BlockRef, 0, nrefs)
	cloneRef := func(r *BlockRef) *BlockRef {
		if r == nil {
			return nil
		}
		refs = append(refs, *r)
		return &refs[len(refs)-1]
	}
	c.Signals = make([]Segment, len(d.Signals))
	for i := range d.Signals {
		cs := &c.Signals[i]
		*cs = d.Signals[i]
		cs.Inside = cloneRef(cs.Inside)
		cs.Start = cloneRef(cs.Start)
		cs.End = cloneRef(cs.End)
	}

	nops := len(d.Pattern.Loop)
	for i := range d.LogicBlocks {
		nops += len(d.LogicBlocks[i].ActiveDuring)
	}
	ops := make([]Op, 0, nops)
	cloneOps := func(src []Op) []Op {
		if len(src) == 0 {
			return nil
		}
		start := len(ops)
		ops = append(ops, src...)
		return ops[start:len(ops):len(ops)]
	}
	c.LogicBlocks = make([]LogicBlock, len(d.LogicBlocks))
	for i := range d.LogicBlocks {
		cb := &c.LogicBlocks[i]
		*cb = d.LogicBlocks[i]
		cb.ActiveDuring = cloneOps(cb.ActiveDuring)
	}
	c.Pattern.Loop = cloneOps(d.Pattern.Loop)
	return &c
}
