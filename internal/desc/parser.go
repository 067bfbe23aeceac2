package desc

import (
	"fmt"
	"io"
	"os"
	"sort"
	"strconv"
	"strings"

	"drampower/internal/codec"
	"drampower/internal/units"
)

// ParseError reports a syntax or semantic problem at a specific input
// position (see codec.ParseError). Its messages carry the "desc:" prefix;
// Line is 1-based and Col is the 1-based column of the offending token, or
// 0 when the problem concerns the whole line. Parse, ParseString and
// ParseFile surface it (possibly wrapped with the file path), so callers
// recover the position with errors.As:
//
//	var pe *desc.ParseError
//	if errors.As(err, &pe) { editor.Jump(pe.Line, pe.Col) }
type ParseError = codec.ParseError

// errAt returns a desc ParseError at line n and column col (0 for the
// whole line). A leading "desc: " is dropped from the message, so an
// embedded error does not render the prefix twice.
func errAt(n, col int, format string, args ...any) error {
	msg := strings.TrimPrefix(fmt.Sprintf(format, args...), "desc: ")
	return &ParseError{Lang: "desc", Line: n, Col: col, Msg: msg}
}

// errAtField positions the error at a specific token of the line.
func errAtField(n int, f field, format string, args ...any) error {
	return errAt(n, f.col, format, args...)
}

// ParseFile reads and parses a description file.
func ParseFile(path string) (*Description, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("desc: %v", err)
	}
	defer f.Close()
	d, err := Parse(f)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return d, nil
}

// ParseString parses a description from a string.
func ParseString(src string) (*Description, error) {
	return Parse(strings.NewReader(src))
}

// Parse reads a DRAM description in the input language of Section III.B.
// The returned description has been syntax-checked but not validated; call
// Description.Validate to run the semantic checks (the "syntax check" stage
// of Figure 4 covers both here).
func Parse(r io.Reader) (*Description, error) {
	lines, err := lex(r)
	if err != nil {
		return nil, err
	}
	return parseLines(lines)
}

// parseLines runs the description parser over pre-lexed lines (shared
// with ParseDocument, which splits a combined descriptor+calibration
// document before parsing each half).
func parseLines(lines []line) (*Description, error) {
	p := &parser{d: &Description{}}
	p.d.Floorplan.BlockWidth = make(map[string]units.Length)
	p.d.Floorplan.BlockHeight = make(map[string]units.Length)
	for _, ln := range lines {
		if err := p.line(ln); err != nil {
			return nil, err
		}
	}
	return p.d, nil
}

// secNone marks "outside any section"; the other sections are tracked by
// their header spelling ("FloorplanPhysical" etc.).
const secNone = ""

type parser struct {
	d       *Description
	section string
}

func (p *parser) line(ln line) error {
	head := ln.fields[0]
	if head.bare() {
		switch head.value {
		case "FloorplanPhysical", "FloorplanSignaling", "Technology",
			"Specification", "Electrical":
			if len(ln.fields) != 1 {
				return errAtField(ln.num, ln.fields[1], "section header %s takes no arguments", head.value)
			}
			p.section = head.value
			return nil
		case "Name":
			if len(ln.fields) < 2 {
				return errAtField(ln.num, head, "Name takes at least one argument")
			}
			parts := make([]string, 0, len(ln.fields)-1)
			for _, f := range ln.fields[1:] {
				if !f.bare() {
					return errAtField(ln.num, f, "Name takes bare words, got %q", f.text())
				}
				parts = append(parts, f.value)
			}
			p.d.Name = strings.Join(parts, " ")
			p.section = secNone
			return nil
		case "LogicBlock":
			p.section = secNone
			return p.logicBlock(ln)
		case "Pattern":
			p.section = secNone
			return p.pattern(ln)
		}
	}
	switch p.section {
	case "FloorplanPhysical":
		return p.floorplanPhysical(ln)
	case "FloorplanSignaling":
		return p.signaling(ln)
	case "Technology":
		return p.technology(ln)
	case "Specification":
		return p.specification(ln)
	case "Electrical":
		return p.electrical(ln)
	}
	return errAtField(ln.num, head, "unexpected directive %q outside any section", head.text())
}

// ---- attribute helpers ----

// attrs collects the key=value fields of a line and tracks which were used,
// so unknown attributes can be reported. Each attribute remembers the
// column of its field, so value errors point at the offending token.
type attrs struct {
	num  int
	m    map[string]string
	cols map[string]int
	used map[string]bool
	bare []string
}

func newAttrs(ln line, skip int) (*attrs, error) {
	a := &attrs{num: ln.num, m: map[string]string{},
		cols: map[string]int{}, used: map[string]bool{}}
	for _, f := range ln.fields[skip:] {
		if f.bare() {
			a.bare = append(a.bare, f.value)
			continue
		}
		if _, dup := a.m[f.key]; dup {
			return nil, errAtField(ln.num, f, "duplicate attribute %q", f.key)
		}
		a.m[f.key] = f.value
		a.cols[f.key] = f.col
	}
	return a, nil
}

// errKey positions an error at the named attribute's token.
func (a *attrs) errKey(key, format string, args ...any) error {
	return errAt(a.num, a.cols[key], format, args...)
}

func (a *attrs) has(key string) bool { _, ok := a.m[key]; return ok }

func (a *attrs) get(key string) (string, bool) {
	v, ok := a.m[key]
	if ok {
		a.used[key] = true
	}
	return v, ok
}

// leftover returns the unused attribute keys, leftmost first.
func (a *attrs) leftover() []string {
	var extra []string
	for k := range a.m {
		if !a.used[k] {
			extra = append(extra, k)
		}
	}
	sort.Slice(extra, func(i, j int) bool { return a.cols[extra[i]] < a.cols[extra[j]] })
	return extra
}

func (a *attrs) finish(context string) error {
	if extra := a.leftover(); len(extra) > 0 {
		return a.errKey(extra[0], "%s: unknown attribute %q", context, extra[0])
	}
	return nil
}

func (a *attrs) intAttr(key string, dst *int) error {
	v, ok := a.get(key)
	if !ok {
		return nil
	}
	n, err := strconv.Atoi(v)
	if err != nil {
		return a.errKey(key, "attribute %s: bad integer %q", key, v)
	}
	*dst = n
	return nil
}

func (a *attrs) lengthAttr(key string, dst *units.Length) error {
	v, ok := a.get(key)
	if !ok {
		return nil
	}
	l, err := units.ParseLength(v)
	if err != nil {
		return a.errKey(key, "attribute %s: %v", key, err)
	}
	*dst = l
	return nil
}

func (a *attrs) fractionAttr(key string, dst *float64) error {
	v, ok := a.get(key)
	if !ok {
		return nil
	}
	f, err := units.ParseFraction(v)
	if err != nil {
		return a.errKey(key, "attribute %s: %v", key, err)
	}
	*dst = f
	return nil
}

func (a *attrs) durationAttr(key string, dst *units.Duration) error {
	v, ok := a.get(key)
	if !ok {
		return nil
	}
	d, err := units.ParseDuration(v)
	if err != nil {
		return a.errKey(key, "attribute %s: %v", key, err)
	}
	*dst = d
	return nil
}

// ---- FloorplanPhysical ----

func (p *parser) floorplanPhysical(ln line) error {
	head := ln.fields[0]
	if !head.bare() {
		return errAtField(ln.num, head, "expected a floorplan directive, got %q", head.text())
	}
	fp := &p.d.Floorplan
	switch head.value {
	case "CellArray":
		a, err := newAttrs(ln, 1)
		if err != nil {
			return err
		}
		if v, ok := a.get("BL"); ok {
			ax, err := ParseAxis(v)
			if err != nil {
				return a.errKey("BL", "%v", err)
			}
			fp.BitlineDir = ax
		}
		if err := a.intAttr("BitsPerBL", &fp.BitsPerBitline); err != nil {
			return err
		}
		if err := a.intAttr("BitsPerLWL", &fp.BitsPerLocalWordline); err != nil {
			return err
		}
		if v, ok := a.get("BLtype"); ok {
			arch, err := ParseBitlineArch(v)
			if err != nil {
				return a.errKey("BLtype", "%v", err)
			}
			fp.Arch = arch
		}
		if err := a.lengthAttr("WLpitch", &fp.WordlinePitch); err != nil {
			return err
		}
		if err := a.lengthAttr("BLpitch", &fp.BitlinePitch); err != nil {
			return err
		}
		if err := a.fractionAttr("ActFraction", &fp.ActivationFraction); err != nil {
			return err
		}
		return a.finish("CellArray")
	case "Stripes":
		a, err := newAttrs(ln, 1)
		if err != nil {
			return err
		}
		if err := a.lengthAttr("BLSA", &fp.BLSAStripeWidth); err != nil {
			return err
		}
		if err := a.lengthAttr("LWD", &fp.LWDStripeWidth); err != nil {
			return err
		}
		return a.finish("Stripes")
	case "CSL":
		a, err := newAttrs(ln, 1)
		if err != nil {
			return err
		}
		if err := a.intAttr("blocks", &fp.BlocksPerCSL); err != nil {
			return err
		}
		return a.finish("CSL")
	case "Vertical", "Horizontal":
		return p.blockList(ln, head.value == "Vertical")
	case "SizeVertical", "SizeHorizontal":
		return p.blockSizes(ln, head.value == "SizeVertical")
	}
	return errAtField(ln.num, head, "unknown floorplan directive %q", head.value)
}

func (p *parser) blockList(ln line, vertical bool) error {
	// "Vertical blocks = A1 P1 P2 P1 A1" arrives as fields
	// [Vertical] [blocks=A1] [P1] [P2] [P1] [A1].
	if len(ln.fields) < 2 || ln.fields[1].key != "blocks" {
		return errAtField(ln.num, ln.fields[0], "expected 'blocks = <names...>'")
	}
	names := []string{ln.fields[1].value}
	for _, f := range ln.fields[2:] {
		if !f.bare() {
			return errAtField(ln.num, f, "unexpected attribute %q in block list", f.text())
		}
		names = append(names, f.value)
	}
	if names[0] == "" {
		return errAtField(ln.num, ln.fields[1], "empty block list")
	}
	if vertical {
		p.d.Floorplan.VerticalBlocks = names
	} else {
		p.d.Floorplan.HorizontalBlocks = names
	}
	return nil
}

func (p *parser) blockSizes(ln line, vertical bool) error {
	if len(ln.fields) < 2 {
		return errAtField(ln.num, ln.fields[0], "expected block sizes, e.g. 'SizeVertical A1=3396um'")
	}
	dst := p.d.Floorplan.BlockWidth
	if vertical {
		dst = p.d.Floorplan.BlockHeight
	}
	for _, f := range ln.fields[1:] {
		if f.bare() {
			return errAtField(ln.num, f, "expected name=size, got %q", f.text())
		}
		l, err := units.ParseLength(f.value)
		if err != nil {
			return errAtField(ln.num, f, "size of block %s: %v", f.key, err)
		}
		dst[f.key] = l
	}
	return nil
}

// ---- FloorplanSignaling ----

func (p *parser) signaling(ln line) error {
	head := ln.fields[0]
	if !head.bare() {
		return errAtField(ln.num, head, "expected a signal segment name, got %q", head.text())
	}
	kind, err := KindForBus(head.value)
	if err != nil {
		return errAtField(ln.num, head, "%v", err)
	}
	seg := Segment{Name: head.value, Kind: kind, Toggle: -1}
	a, err := newAttrs(ln, 1)
	if err != nil {
		return err
	}
	if v, ok := a.get("inside"); ok {
		ref, err := ParseBlockRef(v)
		if err != nil {
			return a.errKey("inside", "%v", err)
		}
		seg.Inside = &ref
		seg.Fraction = 1
	}
	if err := a.fractionAttr("fraction", &seg.Fraction); err != nil {
		return err
	}
	if v, ok := a.get("dir"); ok {
		ax, err := ParseAxis(v)
		if err != nil {
			return a.errKey("dir", "%v", err)
		}
		seg.Dir = ax
	}
	if v, ok := a.get("start"); ok {
		ref, err := ParseBlockRef(v)
		if err != nil {
			return a.errKey("start", "%v", err)
		}
		seg.Start = &ref
	}
	if v, ok := a.get("end"); ok {
		ref, err := ParseBlockRef(v)
		if err != nil {
			return a.errKey("end", "%v", err)
		}
		seg.End = &ref
	}
	if err := a.lengthAttr("NchW", &seg.BufNWidth); err != nil {
		return err
	}
	if err := a.lengthAttr("PchW", &seg.BufPWidth); err != nil {
		return err
	}
	if v, ok := a.get("mux"); ok {
		// "1:8" means the bus widens 8x downstream.
		frac, err := units.ParseFraction(v)
		if err != nil || frac <= 0 {
			return a.errKey("mux", "bad mux ratio %q", v)
		}
		if frac > 1 {
			seg.MuxRatio = int(frac + 0.5)
		} else {
			seg.MuxRatio = int(1/frac + 0.5)
		}
	}
	if err := a.fractionAttr("toggle", &seg.Toggle); err != nil {
		return err
	}
	if err := a.intAttr("wires", &seg.Wires); err != nil {
		return err
	}
	if err := a.fractionAttr("activefrac", &seg.ActiveFrac); err != nil {
		return err
	}
	if err := a.finish("signal " + seg.Name); err != nil {
		return err
	}
	p.d.Signals = append(p.d.Signals, seg)
	return nil
}

// ---- Technology ----

// techParams is the Technology section of the input language: the Table I
// parameters under their compact names, in canonical order. The parser
// looks names up in it, Format writes the section from it and
// TechnologyParameterNames lists it. Each field returns a pointer to its
// Technology field, one of the five types parseTechValue and
// formatTechValue switch on. The names are spelled out rather than taken
// from the Go fields, so renaming a field never changes the language.
var techParams = []struct {
	name  string
	field func(*Technology) any
}{
	{"GateOxideLogic", func(t *Technology) any { return &t.GateOxideLogic }},
	{"GateOxideHV", func(t *Technology) any { return &t.GateOxideHV }},
	{"GateOxideCell", func(t *Technology) any { return &t.GateOxideCell }},
	{"MinGateLengthLogic", func(t *Technology) any { return &t.MinGateLengthLogic }},
	{"JunctionCapLogic", func(t *Technology) any { return &t.JunctionCapLogic }},
	{"MinGateLengthHV", func(t *Technology) any { return &t.MinGateLengthHV }},
	{"JunctionCapHV", func(t *Technology) any { return &t.JunctionCapHV }},
	{"CellAccessLength", func(t *Technology) any { return &t.CellAccessLength }},
	{"CellAccessWidth", func(t *Technology) any { return &t.CellAccessWidth }},
	{"BitlineCap", func(t *Technology) any { return &t.BitlineCap }},
	{"CellCap", func(t *Technology) any { return &t.CellCap }},
	{"BitlineToWLShare", func(t *Technology) any { return &t.BitlineToWLShare }},
	{"BitsPerCSL", func(t *Technology) any { return &t.BitsPerCSL }},
	{"WireCapMWL", func(t *Technology) any { return &t.WireCapMWL }},
	{"MWLPredecodeRatio", func(t *Technology) any { return &t.MWLPredecodeRatio }},
	{"MWLDecoderNMOS", func(t *Technology) any { return &t.MWLDecoderNMOS }},
	{"MWLDecoderPMOS", func(t *Technology) any { return &t.MWLDecoderPMOS }},
	{"MWLDecoderActivity", func(t *Technology) any { return &t.MWLDecoderActivity }},
	{"WLControlLoadNMOS", func(t *Technology) any { return &t.WLControlLoadNMOS }},
	{"WLControlLoadPMOS", func(t *Technology) any { return &t.WLControlLoadPMOS }},
	{"SWDriverNMOS", func(t *Technology) any { return &t.SWDriverNMOS }},
	{"SWDriverPMOS", func(t *Technology) any { return &t.SWDriverPMOS }},
	{"SWDriverRestore", func(t *Technology) any { return &t.SWDriverRestore }},
	{"WireCapLWL", func(t *Technology) any { return &t.WireCapLWL }},
	{"BLSASenseNMOSWidth", func(t *Technology) any { return &t.BLSASenseNMOSWidth }},
	{"BLSASenseNMOSLength", func(t *Technology) any { return &t.BLSASenseNMOSLength }},
	{"BLSASensePMOSWidth", func(t *Technology) any { return &t.BLSASensePMOSWidth }},
	{"BLSASensePMOSLength", func(t *Technology) any { return &t.BLSASensePMOSLength }},
	{"BLSAEqualizeWidth", func(t *Technology) any { return &t.BLSAEqualizeWidth }},
	{"BLSAEqualizeLength", func(t *Technology) any { return &t.BLSAEqualizeLength }},
	{"BLSABitSwitchWidth", func(t *Technology) any { return &t.BLSABitSwitchWidth }},
	{"BLSABitSwitchLength", func(t *Technology) any { return &t.BLSABitSwitchLength }},
	{"BLSAMuxWidth", func(t *Technology) any { return &t.BLSAMuxWidth }},
	{"BLSAMuxLength", func(t *Technology) any { return &t.BLSAMuxLength }},
	{"BLSANSetWidth", func(t *Technology) any { return &t.BLSANSetWidth }},
	{"BLSANSetLength", func(t *Technology) any { return &t.BLSANSetLength }},
	{"BLSAPSetWidth", func(t *Technology) any { return &t.BLSAPSetWidth }},
	{"BLSAPSetLength", func(t *Technology) any { return &t.BLSAPSetLength }},
	{"WireCapSignal", func(t *Technology) any { return &t.WireCapSignal }},
}

// parseTechValue parses v into the Technology field dst points to.
func parseTechValue(dst any, v string) (err error) {
	switch p := dst.(type) {
	case *units.Length:
		*p, err = units.ParseLength(v)
	case *units.Capacitance:
		*p, err = units.ParseCapacitance(v)
	case *units.CapacitancePerLength:
		*p, err = units.ParseCapacitancePerLength(v)
	case *float64:
		*p, err = units.ParseFraction(v)
	case *int:
		*p, err = strconv.Atoi(v)
	default:
		panic(fmt.Sprintf("desc: technology field of type %T", dst))
	}
	return err
}

// TechnologyParameterNames returns the input-language names of all
// technology parameters in a stable order (used by the sensitivity sweep
// and by documentation).
func TechnologyParameterNames() []string {
	names := make([]string, len(techParams))
	for i, p := range techParams {
		names[i] = p.name
	}
	return names
}

func (p *parser) technology(ln line) error {
	if len(ln.fields) != 2 || !ln.fields[0].bare() || !ln.fields[1].bare() {
		return errAt(ln.num, 0, "technology parameters are 'Name value' lines")
	}
	key, val := ln.fields[0].value, ln.fields[1].value
	for _, tp := range techParams {
		if tp.name != key {
			continue
		}
		if err := parseTechValue(tp.field(&p.d.Technology), val); err != nil {
			return errAtField(ln.num, ln.fields[1], "technology parameter %s: %v", key, err)
		}
		return nil
	}
	return errAtField(ln.num, ln.fields[0], "unknown technology parameter %q", key)
}

// ---- Specification ----

// timingParams lists the attributes of the Timing directive in canonical
// order: the parser checks them in this order, so a line with several bad
// values always reports the same one, Format writes them in it, and
// Validate bounds each in control-clock slots by its maxSlots (0: no
// bound, for CL, which no timing rule reads).
var timingParams = []struct {
	key      string
	field    func(*Specification) *units.Duration
	maxSlots float64
}{
	{"tRC", func(s *Specification) *units.Duration { return &s.RowCycle }, MaxTimingSlots},
	{"tRCD", func(s *Specification) *units.Duration { return &s.RowToColumnDelay }, MaxTimingSlots},
	{"tRP", func(s *Specification) *units.Duration { return &s.PrechargeTime }, MaxTimingSlots},
	{"CL", func(s *Specification) *units.Duration { return &s.CASLatency }, 0},
	{"tFAW", func(s *Specification) *units.Duration { return &s.FourBankWindow }, MaxTimingSlots},
	{"tRRD", func(s *Specification) *units.Duration { return &s.RowToRowDelay }, MaxTimingSlots},
	{"tREFI", func(s *Specification) *units.Duration { return &s.RefreshInterval }, MaxRefreshIntervalSlots},
	{"tRFC", func(s *Specification) *units.Duration { return &s.RefreshCycle }, MaxTimingSlots},
}

func (p *parser) specification(ln line) error {
	head := ln.fields[0]
	if !head.bare() {
		return errAtField(ln.num, head, "expected a specification directive, got %q", head.text())
	}
	s := &p.d.Spec
	a, err := newAttrs(ln, 1)
	if err != nil {
		return err
	}
	switch head.value {
	case "IO":
		if err := a.intAttr("width", &s.IOWidth); err != nil {
			return err
		}
		if v, ok := a.get("datarate"); ok {
			r, err := units.ParseDataRate(v)
			if err != nil {
				return a.errKey("datarate", "datarate: %v", err)
			}
			s.DataRate = r
		}
		return a.finish("IO")
	case "Clock":
		if err := a.intAttr("number", &s.ClockWires); err != nil {
			return err
		}
		if v, ok := a.get("frequency"); ok {
			f, err := units.ParseFrequency(v)
			if err != nil {
				return a.errKey("frequency", "frequency: %v", err)
			}
			s.DataClock = f
		}
		return a.finish("Clock")
	case "Control":
		if v, ok := a.get("frequency"); ok {
			f, err := units.ParseFrequency(v)
			if err != nil {
				return a.errKey("frequency", "frequency: %v", err)
			}
			s.ControlClock = f
		}
		if err := a.intAttr("bankadd", &s.BankAddrBits); err != nil {
			return err
		}
		if err := a.intAttr("rowadd", &s.RowAddrBits); err != nil {
			return err
		}
		if err := a.intAttr("coladd", &s.ColAddrBits); err != nil {
			return err
		}
		if err := a.intAttr("misc", &s.MiscCtrlSignals); err != nil {
			return err
		}
		return a.finish("Control")
	case "Burst":
		if err := a.intAttr("length", &s.BurstLength); err != nil {
			return err
		}
		return a.finish("Burst")
	case "Timing":
		for _, tp := range timingParams {
			if err := a.durationAttr(tp.key, tp.field(s)); err != nil {
				return err
			}
		}
		return a.finish("Timing")
	}
	return errAtField(ln.num, head, "unknown specification directive %q", head.value)
}

// ---- Electrical ----

func (p *parser) electrical(ln line) error {
	head := ln.fields[0]
	if !head.bare() {
		return errAtField(ln.num, head, "expected an electrical directive, got %q", head.text())
	}
	el := &p.d.Electrical
	switch head.value {
	case "Vdd", "Vint", "Vbl", "Vpp":
		if len(ln.fields) < 2 || !ln.fields[1].bare() {
			return errAtField(ln.num, head, "%s needs a voltage, e.g. '%s 1.5V'", head.value, head.value)
		}
		v, err := units.ParseVoltage(ln.fields[1].value)
		if err != nil {
			return errAtField(ln.num, ln.fields[1], "%s: %v", head.value, err)
		}
		a, err := newAttrs(ln, 2)
		if err != nil {
			return err
		}
		eff := 1.0
		if err := a.fractionAttr("eff", &eff); err != nil {
			return err
		}
		if err := a.finish(head.value); err != nil {
			return err
		}
		switch head.value {
		case "Vdd":
			el.Vdd = v
		case "Vint":
			el.Vint, el.EffInt = v, eff
		case "Vbl":
			el.Vbl, el.EffBl = v, eff
		case "Vpp":
			el.Vpp, el.EffPp = v, eff
		}
		return nil
	case "ConstantCurrent":
		if len(ln.fields) != 2 || !ln.fields[1].bare() {
			return errAtField(ln.num, head, "ConstantCurrent needs a current, e.g. 'ConstantCurrent 3mA'")
		}
		v := ln.fields[1].value
		// Currents use the same SI grammar with base unit "A".
		num, err := parseCurrent(v)
		if err != nil {
			return errAtField(ln.num, ln.fields[1], "ConstantCurrent: %v", err)
		}
		el.ConstantCurrent = num
		return nil
	}
	return errAtField(ln.num, head, "unknown electrical directive %q", head.value)
}

func parseCurrent(s string) (units.Current, error) {
	// Reuse the voltage parser's grammar by substituting the unit letter.
	if strings.HasSuffix(s, "A") {
		v, err := units.ParseVoltage(strings.TrimSuffix(s, "A") + "V")
		return units.Current(v), err
	}
	v, err := units.ParseVoltage(s)
	return units.Current(v), err
}

// ---- LogicBlock ----

func (p *parser) logicBlock(ln line) error {
	b := LogicBlock{TransistorsPerGate: 4, Toggle: 0.5, GateDensity: 0.25, WiringDensity: 0.4}
	a, err := newAttrs(ln, 1)
	if err != nil {
		return err
	}
	if v, ok := a.get("name"); ok {
		b.Name = v
	}
	if err := a.intAttr("gates", &b.Gates); err != nil {
		return err
	}
	if err := a.lengthAttr("nmos", &b.AvgNMOSWidth); err != nil {
		return err
	}
	if err := a.lengthAttr("pmos", &b.AvgPMOSWidth); err != nil {
		return err
	}
	if err := a.fractionAttr("pergate", &b.TransistorsPerGate); err != nil {
		return err
	}
	if err := a.fractionAttr("density", &b.GateDensity); err != nil {
		return err
	}
	if err := a.fractionAttr("wiring", &b.WiringDensity); err != nil {
		return err
	}
	if err := a.fractionAttr("toggle", &b.Toggle); err != nil {
		return err
	}
	if v, ok := a.get("active"); ok && v != "always" {
		for _, opName := range strings.Split(v, ",") {
			op, err := ParseOp(opName)
			if err != nil {
				return a.errKey("active", "logic block %s: %v", b.Name, err)
			}
			b.ActiveDuring = append(b.ActiveDuring, op)
		}
	}
	if err := a.finish("LogicBlock " + b.Name); err != nil {
		return err
	}
	if b.Name == "" {
		return errAtField(ln.num, ln.fields[0], "LogicBlock needs a name attribute")
	}
	p.d.LogicBlocks = append(p.d.LogicBlocks, b)
	return nil
}

// ---- Pattern ----

func (p *parser) pattern(ln line) error {
	// "Pattern loop= act nop wrt nop rd nop pre nop" arrives as
	// [Pattern] [loop=act] [nop] [wrt] ...
	if len(ln.fields) < 2 || ln.fields[1].key != "loop" {
		return errAtField(ln.num, ln.fields[0], "expected 'Pattern loop= <ops...>'")
	}
	names := []field{{value: ln.fields[1].value, col: ln.fields[1].col}}
	for _, f := range ln.fields[2:] {
		if !f.bare() {
			return errAtField(ln.num, f, "unexpected attribute %q in pattern", f.text())
		}
		names = append(names, f)
	}
	var loop []Op
	for _, n := range names {
		if n.value == "" {
			continue
		}
		op, err := ParseOp(n.value)
		if err != nil {
			return errAtField(ln.num, n, "%v", err)
		}
		loop = append(loop, op)
	}
	if len(loop) == 0 {
		return errAtField(ln.num, ln.fields[0], "empty pattern loop")
	}
	p.d.Pattern.Loop = loop
	return nil
}
