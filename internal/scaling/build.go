package scaling

import (
	"fmt"
	"math"

	"drampower/internal/desc"
	"drampower/internal/units"
)

// Generation-builder anchor values: the calibrated 55 nm DDR3 technology
// (see desc.Sample1GbDDR3). Every parameter scales from these by the
// Figure 5–7 curves.
const (
	anchorGateOxideLogic = 4.0   // nm
	anchorGateOxideHV    = 7.0   // nm
	anchorGateOxideCell  = 6.5   // nm
	anchorMinLenLogic    = 90.0  // nm
	anchorMinLenHV       = 250.0 // nm
	anchorJuncLogic      = 0.8   // fF/um
	anchorJuncHV         = 1.2   // fF/um
	anchorCellAccessLen  = 100.0 // nm
	anchorBitlineCap     = 90.0  // fF at 512 cells
	anchorCellCap        = 25.0  // fF
	anchorWireCapMWL     = 0.25  // fF/um
	anchorWireCapLWL     = 0.15  // fF/um
	anchorWireCapSignal  = 0.20  // fF/um
	anchorBLSAStripe     = 20.0  // um
	anchorLWDStripe      = 3.0   // um
)

// CellPitches returns the cell pitches of the architecture: the pitch of
// cells along the bitline (the wordline pitch of Table I) and across it.
func CellPitches(arch CellArch, featureNm float64) (wl, bl units.Length) {
	f := units.Nanometers(featureNm)
	switch arch {
	case Cell8F2:
		return 4 * f, 2 * f // 8F² folded: 4F × 2F
	case Cell6F2:
		return 3 * f, 2 * f // 6F² open: 3F × 2F
	default:
		return 2 * f, 2 * f // 4F² vertical: 2F × 2F
	}
}

// Device is a buildable DRAM: a roadmap node's technology combined with a
// possibly overridden interface, density, width and data rate. The
// datasheet verification of Section IV.A builds e.g. a 1 Gb DDR3 x4 on
// both 65 nm and 55 nm technology from the same node table.
type Device struct {
	Node        Node
	Interface   Interface
	DensityBits int64
	IOWidth     int
	DataRate    units.DataRate
	Vdd         units.Voltage
	Vint        units.Voltage
	Vbl         units.Voltage
	Vpp         units.Voltage
}

// Device returns the node's default device: its own interface, density,
// a x16 part at the node's peak data rate.
func (n Node) Device() Device {
	return Device{
		Node: n, Interface: n.Interface, DensityBits: n.DensityBits,
		IOWidth: 16, DataRate: n.DataRate,
		Vdd: n.Vdd, Vint: n.Vint, Vbl: n.Vbl, Vpp: n.Vpp,
	}
}

// interfaceVdd is the JEDEC supply voltage of each interface.
func interfaceVdd(i Interface) units.Voltage {
	switch i {
	case SDR:
		return 3.3
	case DDR:
		return 2.5
	case DDR2:
		return 1.8
	case DDR3:
		return 1.5
	case DDR4:
		return 1.2
	default:
		return 1.1
	}
}

// DeviceFor builds a device with an explicit interface, density, width and
// per-pin data rate on the technology of the given node. The supply
// voltage follows the interface standard; the internal voltages are the
// node's, clamped below the supply.
func DeviceFor(featureNm float64, iface Interface, density int64, ioWidth int, rate units.DataRate) (Device, error) {
	n, err := NodeFor(featureNm)
	if err != nil {
		return Device{}, err
	}
	dv := n.Device()
	dv.Interface = iface
	dv.DensityBits = density
	dv.IOWidth = ioWidth
	dv.DataRate = rate
	dv.Vdd = interfaceVdd(iface)
	if dv.Vint > dv.Vdd {
		dv.Vint = dv.Vdd
	}
	if dv.Vbl > dv.Vint-0.05 {
		dv.Vbl = dv.Vint - 0.05
	}
	return dv, nil
}

// Description builds a complete DRAM description for the node: the
// generation builder of Section IV.C. The result validates and feeds the
// power engine directly.
func (n Node) Description() *desc.Description {
	return n.Device().Build()
}

// Build synthesizes the full description of the device: floorplan,
// signaling, technology, specification, electrical information and the
// calibrated miscellaneous logic.
func (dv Device) Build() *desc.Description {
	n := dv.Node
	f := n.FeatureNm
	s := func(family string) float64 { return ScaleFrom55(family, f) }
	umScaled := func(base float64, family string) units.Length {
		return units.Micrometers(base * s(family))
	}
	nmScaled := func(base float64, family string) units.Length {
		return units.Nanometers(base * s(family))
	}

	iface := dv.Interface
	prefetch := iface.Prefetch()
	banks := iface.Banks()
	bankAddr := int(math.Round(math.Log2(float64(banks))))
	colAddr := 10
	if iface <= DDR {
		colAddr = 9
	}
	ioWidth := dv.IOWidth
	if ioWidth == 4 {
		// Narrow parts keep the same page by doubling the column depth.
		colAddr++
	}
	pageBits := (1 << uint(colAddr)) * ioWidth
	rowAddr := int(math.Round(math.Log2(float64(dv.DensityBits)))) -
		bankAddr - colAddr - int(math.Round(math.Log2(float64(ioWidth))))

	d := &desc.Description{Name: deviceName(dv)}

	// ---- floorplan ----
	wlPitch, blPitch := CellPitches(n.Arch, f)
	arch := desc.Open
	if n.Arch == Cell8F2 {
		arch = desc.Folded
	}
	rowsPerBank := int(dv.DensityBits / int64(banks) / int64(pageBits))
	bitsPerBL := n.BitsPerBL
	bitsPerLWL := n.BitsPerBL
	blsaStripe := umScaled(anchorBLSAStripe, "BLSAStripeWidth")
	lwdStripe := umScaled(anchorLWDStripe, "LWDStripeWidth")

	subsBL := (rowsPerBank + bitsPerBL - 1) / bitsPerBL
	subsWL := (pageBits + bitsPerLWL - 1) / bitsPerLWL
	// Exact fence-post extents plus a hair of slack so ArrayLayout.Resolve's
	// floor division recovers the same sub-array counts.
	bankH := units.Length(float64(rowsPerBank)*float64(wlPitch) +
		float64(subsBL+1)*float64(blsaStripe) + 1e-9)
	bankW := units.Length(float64(pageBits)*float64(blPitch) +
		float64(subsWL+1)*float64(lwdStripe) + 1e-9)

	banksX := 4
	if banks >= 32 {
		// High-bank-count parts widen the bank array to keep the die
		// aspect ratio manufacturable.
		banksX = 8
	} else if banks < 4 {
		banksX = banks
	}
	banksY := banks / banksX
	if banksY < 1 {
		banksY = 1
	}

	// Horizontal: the Figure 1 arrangement — bank pairs separated by row
	// logic, a central spine with the off-pitch column of the center
	// stripe. Four banks per strip for most generations, eight for the
	// high-bank-count interfaces.
	horizontal := []string{"A1", "R1", "A1", "C0", "A1", "R1", "A1"}
	switch banksX {
	case 8:
		horizontal = []string{"A1", "R1", "A1", "A1", "R1", "A1", "C0",
			"A1", "R1", "A1", "A1", "R1", "A1"}
	case 2:
		horizontal = []string{"A1", "R1", "A1", "C0"}
	case 1:
		horizontal = []string{"A1", "C0"}
	}
	// Vertical: banksY array strips with column logic between, the center
	// stripe in the middle.
	var vertical []string
	topStrips := (banksY + 1) / 2
	for i := 0; i < topStrips; i++ {
		vertical = append(vertical, "A1", "P1")
	}
	vertical = append(vertical, "P2")
	for i := 0; i < banksY-topStrips; i++ {
		vertical = append(vertical, "P1", "A1")
	}
	centerY := 2 * topStrips // index of P2
	spineX := len(horizontal) - 1
	for i, b := range horizontal {
		if b == "C0" {
			spineX = i
		}
	}

	d.Floorplan = desc.Floorplan{
		BitlineDir:           desc.Vertical,
		BitsPerBitline:       bitsPerBL,
		BitsPerLocalWordline: bitsPerLWL,
		Arch:                 arch,
		BlocksPerCSL:         1,
		WordlinePitch:        wlPitch,
		BitlinePitch:         blPitch,
		BLSAStripeWidth:      blsaStripe,
		LWDStripeWidth:       lwdStripe,
		HorizontalBlocks:     horizontal,
		VerticalBlocks:       vertical,
		BlockWidth: map[string]units.Length{
			"A1": bankW,
			"R1": umScaled(150, "MiscLogicWidth"),
			"C0": umScaled(260, ""),
		},
		BlockHeight: map[string]units.Length{
			"A1": bankH,
			"P1": umScaled(180, "MiscLogicWidth"),
			"P2": umScaled(700, "CenterStripe"),
		},
	}

	// ---- signaling ----
	bufBig := func() (nw, pw units.Length) {
		return umScaled(9.6, "MiscLogicWidth"), umScaled(19.2, "MiscLogicWidth")
	}
	bufMid := func() (nw, pw units.Length) {
		return umScaled(4.8, "MiscLogicWidth"), umScaled(9.6, "MiscLogicWidth")
	}
	bufSmall := func() (nw, pw units.Length) {
		return umScaled(2.4, "MiscLogicWidth"), umScaled(4.8, "MiscLogicWidth")
	}
	ref := func(x, y int) *desc.BlockRef { return &desc.BlockRef{X: x, Y: y} }
	seg := func(s desc.Segment) desc.Segment { s.Toggle = -1; return s }
	bn, bp := bufBig()
	mn, mp := bufMid()
	sn, sp := bufSmall()
	lastX := len(horizontal) - 1
	rowLogicX := 1
	if banksX == 1 {
		rowLogicX = 0
	}
	d.Signals = []desc.Segment{
		seg(desc.Segment{Name: "DataW0", Kind: desc.SigDataWrite, Inside: ref(spineX, centerY),
			Fraction: 0.25, Dir: desc.Horizontal, MuxRatio: prefetch, BufNWidth: bn, BufPWidth: bp}),
		seg(desc.Segment{Name: "DataW1", Kind: desc.SigDataWrite,
			Start: ref(spineX, centerY), End: ref(rowLogicX, centerY), BufNWidth: bn, BufPWidth: bp}),
		seg(desc.Segment{Name: "DataW2", Kind: desc.SigDataWrite,
			Start: ref(rowLogicX, centerY), End: ref(rowLogicX, 0), BufNWidth: mn, BufPWidth: mp}),
		seg(desc.Segment{Name: "DataW3", Kind: desc.SigDataWrite, Inside: ref(0, 0),
			Fraction: 0.5, Dir: desc.Horizontal, BufNWidth: mn, BufPWidth: mp}),
		seg(desc.Segment{Name: "DataR0", Kind: desc.SigDataRead, Inside: ref(0, 0),
			Fraction: 0.5, Dir: desc.Horizontal, BufNWidth: mn, BufPWidth: mp}),
		seg(desc.Segment{Name: "DataR1", Kind: desc.SigDataRead,
			Start: ref(rowLogicX, 0), End: ref(rowLogicX, centerY), BufNWidth: mn, BufPWidth: mp}),
		seg(desc.Segment{Name: "DataR2", Kind: desc.SigDataRead,
			Start: ref(rowLogicX, centerY), End: ref(spineX, centerY), BufNWidth: bn, BufPWidth: bp}),
		seg(desc.Segment{Name: "DataR3", Kind: desc.SigDataRead, Inside: ref(spineX, centerY),
			Fraction: 0.25, Dir: desc.Horizontal, MuxRatio: prefetch, BufNWidth: bn, BufPWidth: bp}),
		seg(desc.Segment{Name: "Clk0", Kind: desc.SigClock,
			Start: ref(0, centerY), End: ref(lastX, centerY), Wires: clockWires(iface),
			BufNWidth: bn, BufPWidth: bp}),
		seg(desc.Segment{Name: "Ctrl0", Kind: desc.SigControl,
			Start: ref(0, centerY), End: ref(lastX, centerY), BufNWidth: sn, BufPWidth: sp}),
		seg(desc.Segment{Name: "AddrRow0", Kind: desc.SigAddrRow,
			Start: ref(spineX, centerY), End: ref(rowLogicX, centerY), BufNWidth: sn, BufPWidth: sp}),
		seg(desc.Segment{Name: "AddrRow1", Kind: desc.SigAddrRow,
			Start: ref(rowLogicX, centerY), End: ref(rowLogicX, 0), BufNWidth: sn, BufPWidth: sp}),
		seg(desc.Segment{Name: "AddrCol0", Kind: desc.SigAddrCol,
			Start: ref(spineX, centerY), End: ref(rowLogicX, centerY-1), BufNWidth: sn, BufPWidth: sp}),
		seg(desc.Segment{Name: "AddrBank0", Kind: desc.SigAddrBank,
			Start: ref(spineX, centerY), End: ref(rowLogicX, centerY), BufNWidth: sn, BufPWidth: sp}),
	}

	// ---- technology ----
	gateOxideLogic := nmScaled(anchorGateOxideLogic, "GateOxideLogic")
	gateOxideHV := nmScaled(anchorGateOxideHV, "GateOxideHV")
	if f > 90 {
		// Table II: dual gate oxide arrives at the 110→90 transition;
		// before it, logic transistors use the thick oxide.
		gateOxideLogic = gateOxideHV
	}
	foldedMuxW, foldedMuxL := units.Length(0), units.Length(0)
	if arch == desc.Folded {
		foldedMuxW = umScaled(0.4, "BLSADeviceWidth")
		foldedMuxL = nmScaled(90, "BLSADeviceLength")
	}
	d.Technology = desc.Technology{
		GateOxideLogic:     gateOxideLogic,
		GateOxideHV:        gateOxideHV,
		GateOxideCell:      nmScaled(anchorGateOxideCell, "GateOxideCell"),
		MinGateLengthLogic: nmScaled(anchorMinLenLogic, "MinGateLengthLogic"),
		JunctionCapLogic:   units.FemtofaradsPerMicrometer(anchorJuncLogic * s("JunctionCap")),
		MinGateLengthHV:    nmScaled(anchorMinLenHV, "MinGateLengthHV"),
		JunctionCapHV:      units.FemtofaradsPerMicrometer(anchorJuncHV * s("JunctionCap")),
		CellAccessLength:   nmScaled(anchorCellAccessLen, "CellAccessLength"),
		CellAccessWidth:    units.Nanometers(f),
		BitlineCap: units.Femtofarads(anchorBitlineCap *
			float64(bitsPerBL) / 512 * s("BitlineCapPerCell")),
		CellCap:            units.Femtofarads(anchorCellCap),
		BitlineToWLShare:   0.30,
		BitsPerCSL:         8,
		WireCapMWL:         units.FemtofaradsPerMicrometer(anchorWireCapMWL * s("WireCap")),
		MWLPredecodeRatio:  0.25,
		MWLDecoderNMOS:     umScaled(1.0, "RowDeviceWidth"),
		MWLDecoderPMOS:     umScaled(2.0, "RowDeviceWidth"),
		MWLDecoderActivity: 0.25,
		WLControlLoadNMOS:  umScaled(2.0, "RowDeviceWidth"),
		WLControlLoadPMOS:  umScaled(4.0, "RowDeviceWidth"),
		SWDriverNMOS:       umScaled(0.6, "RowDeviceWidth"),
		SWDriverPMOS:       umScaled(1.2, "RowDeviceWidth"),
		SWDriverRestore:    umScaled(0.3, "RowDeviceWidth"),
		WireCapLWL:         units.FemtofaradsPerMicrometer(anchorWireCapLWL * s("WireCap")),

		BLSASenseNMOSWidth:  umScaled(0.7, "BLSADeviceWidth"),
		BLSASenseNMOSLength: nmScaled(120, "BLSADeviceLength"),
		BLSASensePMOSWidth:  umScaled(0.9, "BLSADeviceWidth"),
		BLSASensePMOSLength: nmScaled(120, "BLSADeviceLength"),
		BLSAEqualizeWidth:   umScaled(0.3, "BLSADeviceWidth"),
		BLSAEqualizeLength:  nmScaled(90, "BLSADeviceLength"),
		BLSABitSwitchWidth:  umScaled(0.5, "BLSADeviceWidth"),
		BLSABitSwitchLength: nmScaled(90, "BLSADeviceLength"),
		BLSAMuxWidth:        foldedMuxW,
		BLSAMuxLength:       foldedMuxL,
		BLSANSetWidth:       umScaled(0.8, "BLSADeviceWidth"),
		BLSANSetLength:      nmScaled(120, "BLSADeviceLength"),
		BLSAPSetWidth:       umScaled(0.8, "BLSADeviceWidth"),
		BLSAPSetLength:      nmScaled(120, "BLSADeviceLength"),

		WireCapSignal: units.FemtofaradsPerMicrometer(anchorWireCapSignal * s("WireCap")),
	}

	// ---- specification ----
	dataClock := units.Frequency(float64(dv.DataRate) / 2)
	if iface == SDR {
		dataClock = units.Frequency(float64(dv.DataRate))
	}
	d.Spec = desc.Specification{
		IOWidth:          ioWidth,
		DataRate:         dv.DataRate,
		ClockWires:       clockWires(iface),
		DataClock:        dataClock,
		ControlClock:     dataClock,
		BankAddrBits:     bankAddr,
		RowAddrBits:      rowAddr,
		ColAddrBits:      colAddr,
		MiscCtrlSignals:  6 + int(iface),
		BurstLength:      burstLength(iface),
		RowCycle:         n.TRC,
		RowToColumnDelay: n.TRCD,
		PrechargeTime:    n.TRP,
		CASLatency:       n.TRCD,
		FourBankWindow:   fourBankWindow(iface),
		RowToRowDelay:    rowToRow(iface),
		RefreshInterval:  units.Duration(7.8 * units.Micro),
		RefreshCycle: units.Duration(35e-9*math.Sqrt(float64(dv.DensityBits)/float64(128<<20)) +
			40e-9),
	}

	// ---- electrical ----
	// Constant sink: reference currents plus the DC bias of the DLL and
	// the input receivers — absent on SDR (TTL inputs, no DLL), heavy on
	// DDR2 designs, improving afterwards, growing again with data rate.
	constBase := map[Interface]float64{
		SDR: 3e-3, DDR: 8e-3, DDR2: 16e-3, DDR3: 12e-3, DDR4: 12e-3, DDR5: 14e-3,
	}[iface]
	constCurrent := constBase * math.Sqrt(float64(dv.DataRate)/float64(n.DataRate))
	if constCurrent < 1e-3 {
		constCurrent = 1e-3
	}
	d.Electrical = desc.Electrical{
		Vdd: dv.Vdd, Vint: dv.Vint, Vbl: dv.Vbl, Vpp: dv.Vpp,
		EffInt: 0.95, EffBl: 0.90, EffPp: 0.50,
		ConstantCurrent: units.Current(constCurrent),
	}

	// ---- miscellaneous logic (Section III.B.5 fit parameters) ----
	// Peripheral logic complexity grows with each interface generation;
	// the gate counts scale from the DDR3 calibration by a per-generation
	// complexity factor, and device widths shrink with the MiscLogicWidth
	// curve of Figure 6.
	complexity := math.Pow(1.35, float64(iface)-float64(DDR3))
	gw := func(um float64) units.Length { return umScaled(um, "MiscLogicWidth") }
	gates := func(base float64, c float64) int { return int(base*c + 0.5) }
	d.LogicBlocks = []desc.LogicBlock{
		{Name: "clocktree", Gates: gates(2400, complexity), AvgNMOSWidth: gw(0.6),
			AvgPMOSWidth: gw(1.2), TransistorsPerGate: 4,
			GateDensity: 0.30, WiringDensity: 0.45, Toggle: 0.6},
		{Name: "control", Gates: gates(4800, complexity), AvgNMOSWidth: gw(0.5),
			AvgPMOSWidth: gw(1.0), TransistorsPerGate: 4,
			GateDensity: 0.25, WiringDensity: 0.40, Toggle: 0.2},
		{Name: "rowlogic", Gates: gates(12000, math.Sqrt(complexity)), AvgNMOSWidth: gw(0.5),
			AvgPMOSWidth: gw(1.0), TransistorsPerGate: 4,
			GateDensity: 0.25, WiringDensity: 0.40, Toggle: 0.8,
			ActiveDuring: []desc.Op{desc.OpActivate, desc.OpPrecharge, desc.OpRefresh}},
		{Name: "columnlogic", Gates: gates(21600, complexity), AvgNMOSWidth: gw(0.5),
			AvgPMOSWidth: gw(1.0), TransistorsPerGate: 4,
			GateDensity: 0.25, WiringDensity: 0.40, Toggle: 0.25,
			ActiveDuring: []desc.Op{desc.OpRead, desc.OpWrite}},
		{Name: "interface", Gates: gates(24000, complexity), AvgNMOSWidth: gw(0.6),
			AvgPMOSWidth: gw(1.2), TransistorsPerGate: 4,
			GateDensity: 0.30, WiringDensity: 0.45, Toggle: 0.5,
			ActiveDuring: []desc.Op{desc.OpRead, desc.OpWrite}},
	}

	d.Pattern = desc.Pattern{Loop: []desc.Op{
		desc.OpActivate, desc.OpNop, desc.OpWrite, desc.OpNop,
		desc.OpRead, desc.OpNop, desc.OpPrecharge, desc.OpNop,
	}}
	return d
}

// burstLength returns the mode-register burst length of the interface: a
// column command bursts eight beats per pin on every generation up to
// DDR4 (on SDR that is eight internal column cycles through the open
// row; from DDR3 on a single 8n prefetch), sixteen on DDR5.
func burstLength(i Interface) int {
	if i == DDR5 {
		return 16
	}
	return 8
}

func clockWires(i Interface) int {
	if i == SDR {
		return 1
	}
	return 2
}

func fourBankWindow(i Interface) units.Duration {
	if i >= DDR2 {
		return units.Nanoseconds(40)
	}
	return 0
}

func rowToRow(i Interface) units.Duration {
	if i >= DDR2 {
		return units.Nanoseconds(7.5)
	}
	return units.Nanoseconds(15)
}

// BuildAll returns validated descriptions for every roadmap node, in
// roadmap order.
func BuildAll() ([]*desc.Description, error) {
	var out []*desc.Description
	for _, n := range Roadmap() {
		d := n.Description()
		if err := d.Validate(); err != nil {
			return nil, fmt.Errorf("scaling: node %s: %w", n.Name(), err)
		}
		out = append(out, d)
	}
	return out, nil
}

// deviceName labels a device like the paper's figures: "1G DDR3 x16
// 1600Mbps 55nm".
func deviceName(dv Device) string {
	d := dv.DensityBits / (1 << 20)
	ds := fmt.Sprintf("%dM", d)
	if d >= 1024 {
		ds = fmt.Sprintf("%dG", d/1024)
	}
	return fmt.Sprintf("%s %s x%d %.0fMbps %.0fnm", ds, dv.Interface,
		dv.IOWidth, float64(dv.DataRate)/1e6, dv.Node.FeatureNm)
}
