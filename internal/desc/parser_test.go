package desc

import (
	"errors"
	"fmt"
	"math"
	"os"
	"reflect"
	"strings"
	"testing"

	"drampower/internal/units"
)

// The excerpts of Section III.B of the paper, verbatim (spacing included),
// must parse.
const paperExcerpt = `
FloorplanPhysical
CellArray BL=v BitsPerBL=512 BLtype=open
CellArray WLpitch=165nm BLpitch=110nm
Vertical blocks = A1 P1 P2 P1 A1
SizeVertical A1=3396um P1=200um P2=530um
Horizontal blocks = A1 R1 A1 C0 A1 R1 A1
SizeHorizontal A1=1900um R1=150um C0=260um

FloorplanSignaling
DataW0 inside=0_2 fraction=25% dir=h mux=1:8
DataW1 start=0_2 end=3_2 PchW=19.2um NchW=9.6um

Specification
IO width=16 datarate=1.6Gbps
Clock number=1 frequency=800MHz
Control frequency=800MHz
Control bankadd=3 rowadd=14 coladd=10

Pattern loop= act nop wrt nop rd nop pre nop
`

func TestParsePaperExcerpt(t *testing.T) {
	d, err := ParseString(paperExcerpt)
	if err != nil {
		t.Fatalf("parsing paper excerpt: %v", err)
	}
	fp := d.Floorplan
	if fp.BitlineDir != Vertical {
		t.Errorf("bitline dir: got %v, want v", fp.BitlineDir)
	}
	if fp.BitsPerBitline != 512 {
		t.Errorf("bits per bitline: got %d, want 512", fp.BitsPerBitline)
	}
	if fp.Arch != Open {
		t.Errorf("arch: got %v, want open", fp.Arch)
	}
	if got := fp.WordlinePitch.Nanometers(); math.Abs(got-165) > 1e-9 {
		t.Errorf("wordline pitch: got %gnm, want 165nm", got)
	}
	wantV := []string{"A1", "P1", "P2", "P1", "A1"}
	if len(fp.VerticalBlocks) != len(wantV) {
		t.Fatalf("vertical blocks: got %v, want %v", fp.VerticalBlocks, wantV)
	}
	for i, n := range wantV {
		if fp.VerticalBlocks[i] != n {
			t.Errorf("vertical block %d: got %s, want %s", i, fp.VerticalBlocks[i], n)
		}
	}
	if got := fp.BlockHeight["A1"].Micrometers(); math.Abs(got-3396) > 1e-9 {
		t.Errorf("A1 height: got %gum, want 3396um", got)
	}

	if len(d.Signals) != 2 {
		t.Fatalf("signals: got %d, want 2", len(d.Signals))
	}
	s0 := d.Signals[0]
	if s0.Kind != SigDataWrite {
		t.Errorf("DataW0 kind: got %v", s0.Kind)
	}
	if s0.Inside == nil || s0.Inside.X != 0 || s0.Inside.Y != 2 {
		t.Errorf("DataW0 inside: got %v", s0.Inside)
	}
	if math.Abs(s0.Fraction-0.25) > 1e-12 {
		t.Errorf("DataW0 fraction: got %g, want 0.25", s0.Fraction)
	}
	if s0.MuxRatio != 8 {
		t.Errorf("DataW0 mux: got %d, want 8", s0.MuxRatio)
	}
	s1 := d.Signals[1]
	if s1.Start == nil || s1.End == nil || s1.End.X != 3 {
		t.Errorf("DataW1 span: got start=%v end=%v", s1.Start, s1.End)
	}
	if got := s1.BufPWidth.Micrometers(); math.Abs(got-19.2) > 1e-9 {
		t.Errorf("DataW1 PchW: got %gum, want 19.2um", got)
	}

	if d.Spec.IOWidth != 16 {
		t.Errorf("IO width: got %d", d.Spec.IOWidth)
	}
	if got := d.Spec.DataRate.Gbps(); math.Abs(got-1.6) > 1e-9 {
		t.Errorf("datarate: got %g, want 1.6", got)
	}
	if d.Spec.RowAddrBits != 14 || d.Spec.ColAddrBits != 10 || d.Spec.BankAddrBits != 3 {
		t.Errorf("addressing: got bank=%d row=%d col=%d",
			d.Spec.BankAddrBits, d.Spec.RowAddrBits, d.Spec.ColAddrBits)
	}

	want := []Op{OpActivate, OpNop, OpWrite, OpNop, OpRead, OpNop, OpPrecharge, OpNop}
	if len(d.Pattern.Loop) != len(want) {
		t.Fatalf("pattern: got %v", d.Pattern.Loop)
	}
	for i, op := range want {
		if d.Pattern.Loop[i] != op {
			t.Errorf("pattern[%d]: got %v, want %v", i, d.Pattern.Loop[i], op)
		}
	}
}

func TestPatternMix(t *testing.T) {
	d, err := ParseString(paperExcerpt)
	if err != nil {
		t.Fatal(err)
	}
	mix := d.Pattern.Mix()
	// The paper: 12.5% each of act/wrt/rd/pre, 50% nop.
	for op, want := range map[Op]float64{
		OpActivate: 0.125, OpWrite: 0.125, OpRead: 0.125,
		OpPrecharge: 0.125, OpNop: 0.5,
	} {
		if math.Abs(mix[op]-want) > 1e-12 {
			t.Errorf("mix[%v] = %g, want %g", op, mix[op], want)
		}
	}
}

func TestParseErrors(t *testing.T) {
	cases := []struct {
		name, src, wantSub string
	}{
		{"unknown section directive", "Bogus stuff\n", "unexpected directive"},
		{"unknown floorplan directive", "FloorplanPhysical\nFrobnicate x=1\n", "unknown floorplan directive"},
		{"bad axis", "FloorplanPhysical\nCellArray BL=q\n", "bad axis"},
		{"bad bltype", "FloorplanPhysical\nCellArray BLtype=curly\n", "bad bitline architecture"},
		{"bad blockref", "FloorplanSignaling\nDataW0 inside=zz\n", "bad block reference"},
		{"unknown signal prefix", "FloorplanSignaling\nFoo0 inside=0_0\n", "cannot classify"},
		{"unknown tech param", "Technology\nFluxCapacitance 1fF\n", "unknown technology parameter"},
		{"tech param bad value", "Technology\nBitlineCap 80xF\n", "BitlineCap"},
		{"unknown spec directive", "Specification\nWheels count=4\n", "unknown specification directive"},
		{"bad pattern op", "Pattern loop= act jump\n", "unknown operation"},
		{"pattern missing loop", "Pattern act nop\n", "expected 'Pattern loop="},
		{"duplicate attr", "FloorplanSignaling\nDataW0 inside=0_0 inside=1_1\n", "duplicate attribute"},
		{"unknown attr", "Specification\nIO width=16 color=red\n", "unknown attribute"},
		{"dangling equals", "FloorplanPhysical\n= A1\n", "dangling"},
		{"electrical junk", "Electrical\nVolts 1.5V\n", "unknown electrical directive"},
		{"section arg", "FloorplanPhysical extra\n", "takes no arguments"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			_, err := ParseString(c.src)
			if err == nil {
				t.Fatalf("expected error containing %q, got nil", c.wantSub)
			}
			if !strings.Contains(err.Error(), c.wantSub) {
				t.Errorf("error %q does not contain %q", err, c.wantSub)
			}
		})
	}
}

func TestParseErrorHasLineNumber(t *testing.T) {
	_, err := ParseString("FloorplanPhysical\n\n# comment\nCellArray BL=q\n")
	if err == nil {
		t.Fatal("expected error")
	}
	var pe *ParseError
	if !errors.As(err, &pe) {
		t.Fatalf("error is %T, want *ParseError", err)
	}
	if pe.Line != 4 {
		t.Errorf("error line: got %d, want 4", pe.Line)
	}
	if pe.Col != 11 {
		t.Errorf("error col: got %d, want 11 (the BL=q token)", pe.Col)
	}
}

func TestParseErrorPositions(t *testing.T) {
	// Every parse error carries the line and, where a single token is at
	// fault, the 1-based column of that token; Col 0 means "whole line".
	cases := []struct {
		name, src         string
		wantLine, wantCol int
	}{
		{"bad axis value", "FloorplanPhysical\n\n# comment\nCellArray BL=q\n", 4, 11},
		{"unknown tech param", "Technology\nFluxCapacitance 1fF\n", 2, 1},
		{"tech param bad value", "Technology\nBitlineCap 80xF\n", 2, 12},
		{"bad pattern op", "Pattern loop= act jump\n", 1, 19},
		{"dangling equals", "FloorplanPhysical\n= A1\n", 2, 1},
		{"unknown attribute", "Specification\nIO width=16 color=red\n", 2, 13},
		{"duplicate attribute", "FloorplanSignaling\nDataW0 inside=0_0 inside=1_1\n", 2, 19},
		{"section header argument", "FloorplanPhysical extra\n", 1, 19},
		{"spaced equals keeps key col", "Specification\nIO width = 16x\n", 2, 4},
		{"whole-line error has col 0", "Technology\nBitlineCap\n", 2, 0},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			_, err := ParseString(c.src)
			if err == nil {
				t.Fatal("expected error")
			}
			var pe *ParseError
			if !errors.As(err, &pe) {
				t.Fatalf("error is %T (%v), want *ParseError", err, err)
			}
			if pe.Line != c.wantLine || pe.Col != c.wantCol {
				t.Errorf("position: got line %d col %d, want line %d col %d (%v)",
					pe.Line, pe.Col, c.wantLine, c.wantCol, pe)
			}
		})
	}
}

func TestParseFileErrorWrapsParseError(t *testing.T) {
	// ParseFile wraps with the path using %w so errors.As still recovers
	// the position.
	path := t.TempDir() + "/bad.dram"
	if err := os.WriteFile(path, []byte("Technology\nFluxCapacitance 1fF\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	_, err := ParseFile(path)
	if err == nil {
		t.Fatal("expected error")
	}
	var pe *ParseError
	if !errors.As(err, &pe) {
		t.Fatalf("error is %T (%v), want wrapped *ParseError", err, err)
	}
	if pe.Line != 2 || pe.Col != 1 {
		t.Errorf("position: got line %d col %d, want line 2 col 1", pe.Line, pe.Col)
	}
	if !strings.Contains(err.Error(), path) {
		t.Errorf("error %q does not mention the file path", err)
	}
}

func TestCommentsAndBlankLines(t *testing.T) {
	d, err := ParseString("# leading comment\n\nName test // trailing\n# done\n")
	if err != nil {
		t.Fatal(err)
	}
	if d.Name != "test" {
		t.Errorf("name: got %q", d.Name)
	}
}

func TestLogicBlockParsing(t *testing.T) {
	src := "LogicBlock name=ctrl gates=15000 nmos=0.5um pmos=1.0um pergate=4 density=25% wiring=40% toggle=0.3 active=rd,wrt\n"
	d, err := ParseString(src)
	if err != nil {
		t.Fatal(err)
	}
	if len(d.LogicBlocks) != 1 {
		t.Fatalf("blocks: got %d", len(d.LogicBlocks))
	}
	b := d.LogicBlocks[0]
	if b.Name != "ctrl" || b.Gates != 15000 {
		t.Errorf("block: got %+v", b)
	}
	if math.Abs(b.GateDensity-0.25) > 1e-12 {
		t.Errorf("density: got %g", b.GateDensity)
	}
	if len(b.ActiveDuring) != 2 || b.ActiveDuring[0] != OpRead || b.ActiveDuring[1] != OpWrite {
		t.Errorf("active: got %v", b.ActiveDuring)
	}
	if b.ActiveFor(OpNop) {
		t.Error("rd/wrt block should not be active in nop")
	}
	if !b.ActiveFor(OpWrite) {
		t.Error("rd/wrt block should be active in wrt")
	}
}

func TestLogicBlockAlwaysActive(t *testing.T) {
	d, err := ParseString("LogicBlock name=clk gates=100 nmos=1um pmos=2um active=always\n")
	if err != nil {
		t.Fatal(err)
	}
	b := d.LogicBlocks[0]
	for _, op := range AllOps {
		if !b.ActiveFor(op) {
			t.Errorf("always-active block inactive for %v", op)
		}
	}
}

func TestElectricalParsing(t *testing.T) {
	src := `Electrical
Vdd 1.5V
Vint 1.3V eff=87%
Vbl 1.0V eff=80%
Vpp 2.9V eff=45%
ConstantCurrent 4mA
`
	d, err := ParseString(src)
	if err != nil {
		t.Fatal(err)
	}
	el := d.Electrical
	if math.Abs(float64(el.Vdd)-1.5) > 1e-12 {
		t.Errorf("Vdd: got %v", el.Vdd)
	}
	if math.Abs(el.EffInt-0.87) > 1e-12 {
		t.Errorf("EffInt: got %g", el.EffInt)
	}
	if math.Abs(el.EffPp-0.45) > 1e-12 {
		t.Errorf("EffPp: got %g", el.EffPp)
	}
	if math.Abs(float64(el.ConstantCurrent)-4e-3) > 1e-12 {
		t.Errorf("ConstantCurrent: got %v", el.ConstantCurrent)
	}
	v, eff := el.DomainVoltageAndEff(DomainVpp)
	if math.Abs(float64(v)-2.9) > 1e-12 || math.Abs(eff-0.45) > 1e-12 {
		t.Errorf("DomainVoltageAndEff(Vpp): got %v, %g", v, eff)
	}
	v, eff = el.DomainVoltageAndEff(DomainVdd)
	if math.Abs(float64(v)-1.5) > 1e-12 || eff != 1 {
		t.Errorf("DomainVoltageAndEff(Vdd): got %v, %g", v, eff)
	}
}

func TestTechnologyParsing(t *testing.T) {
	src := `Technology
GateOxideLogic 4nm
BitlineCap 80fF
CellCap 25fF
BitlineToWLShare 30%
BitsPerCSL 8
WireCapSignal 0.2fF/um
`
	d, err := ParseString(src)
	if err != nil {
		t.Fatal(err)
	}
	te := d.Technology
	if got := te.GateOxideLogic.Nanometers(); math.Abs(got-4) > 1e-9 {
		t.Errorf("GateOxideLogic: got %gnm", got)
	}
	if got := te.BitlineCap.Femtofarads(); math.Abs(got-80) > 1e-9 {
		t.Errorf("BitlineCap: got %gfF", got)
	}
	if math.Abs(te.BitlineToWLShare-0.3) > 1e-12 {
		t.Errorf("BitlineToWLShare: got %g", te.BitlineToWLShare)
	}
	if te.BitsPerCSL != 8 {
		t.Errorf("BitsPerCSL: got %d", te.BitsPerCSL)
	}
	wantWC := 0.2 * units.Femto / units.Micro
	if math.Abs(float64(te.WireCapSignal)-wantWC) > 1e-20 {
		t.Errorf("WireCapSignal: got %g, want %g", float64(te.WireCapSignal), wantWC)
	}
}

func TestTechnologyParameterNamesComplete(t *testing.T) {
	// The list must cover all 39 technology parameters of Table I, and the
	// table behind it must reach every Technology field exactly once.
	names := TechnologyParameterNames()
	if len(names) != 39 {
		t.Errorf("technology parameter count: got %d, want 39 (paper Section III.B.3)", len(names))
	}
	seen := map[string]bool{}
	for i, n := range names {
		if seen[n] {
			t.Errorf("duplicate parameter name %s", n)
		}
		seen[n] = true
		if techParams[i].name != n {
			t.Errorf("name %d: list says %s, table says %s", i, n, techParams[i].name)
		}
	}
	var tech Technology
	reached := map[any]int{}
	for _, p := range techParams {
		reached[p.field(&tech)]++
	}
	v := reflect.ValueOf(&tech).Elem()
	for i := 0; i < v.NumField(); i++ {
		if n := reached[v.Field(i).Addr().Interface()]; n != 1 {
			t.Errorf("Technology.%s is reached by %d table entries, want 1", v.Type().Field(i).Name, n)
		}
	}
	if len(reached) != v.NumField() {
		t.Errorf("table reaches %d fields, Technology has %d", len(reached), v.NumField())
	}
}

func TestSpecificationDerived(t *testing.T) {
	d := Sample1GbDDR3()
	if got := d.Spec.Banks(); got != 8 {
		t.Errorf("banks: got %d, want 8", got)
	}
	// Page = 2^10 col addrs x 16 DQ = 16 Kbit = 2 KB.
	if got := d.Spec.PageBits(); got != 16384 {
		t.Errorf("page bits: got %d, want 16384", got)
	}
	if got := d.Spec.Prefetch(); got != 2 {
		// datarate 1.6G / control clock 800M = 2 (DDR); the burst length
		// field carries the architectural prefetch of 8.
		t.Errorf("prefetch: got %d, want 2", got)
	}
}

func TestSampleValidates(t *testing.T) {
	d := Sample1GbDDR3()
	if err := d.Validate(); err != nil {
		ve := err.(*ValidationError)
		for _, p := range ve.Problems {
			t.Errorf("sample: %s", p)
		}
	}
}

func TestCloneIsDeep(t *testing.T) {
	d := Sample1GbDDR3()
	c := d.Clone()
	c.Floorplan.BlockWidth["A1"] = units.Micrometers(1)
	c.Signals[0].Inside.X = 99
	c.LogicBlocks[0].Gates = 1
	c.Pattern.Loop[0] = OpNop
	c.Floorplan.HorizontalBlocks[0] = "Z"
	if d.Floorplan.BlockWidth["A1"] == units.Micrometers(1) {
		t.Error("block width map shared")
	}
	if d.Signals[0].Inside.X == 99 {
		t.Error("signal block ref shared")
	}
	if d.LogicBlocks[0].Gates == 1 {
		t.Error("logic blocks shared")
	}
	if d.Pattern.Loop[0] == OpNop {
		t.Error("pattern shared")
	}
	if d.Floorplan.HorizontalBlocks[0] == "Z" {
		t.Error("horizontal blocks shared")
	}
}

func TestKindForBus(t *testing.T) {
	cases := map[string]SignalKind{
		"DataW0": SigDataWrite, "DataR3": SigDataRead, "Data5": SigDataShared,
		"Clk0": SigClock, "Ctrl1": SigControl, "Cmd0": SigControl,
		"AddrRow0": SigAddrRow, "AddrCol2": SigAddrCol, "AddrBank0": SigAddrBank,
	}
	for name, want := range cases {
		got, err := KindForBus(name)
		if err != nil {
			t.Errorf("KindForBus(%q): %v", name, err)
			continue
		}
		if got != want {
			t.Errorf("KindForBus(%q) = %v, want %v", name, got, want)
		}
	}
	if _, err := KindForBus("Mystery0"); err == nil {
		t.Error("KindForBus(Mystery0): expected error")
	}
}

func TestValidateCatchesProblems(t *testing.T) {
	d := Sample1GbDDR3()
	d.Floorplan.BitsPerBitline = 0
	d.Electrical.Vpp = 0.5 // below Vbl
	d.Pattern.Loop = nil
	d.Signals[0].Fraction = 2
	err := d.Validate()
	if err == nil {
		t.Fatal("expected validation error")
	}
	ve, ok := err.(*ValidationError)
	if !ok {
		t.Fatalf("error is %T", err)
	}
	if len(ve.Problems) < 4 {
		t.Errorf("expected at least 4 problems, got %d: %v", len(ve.Problems), ve.Problems)
	}
	joined := strings.Join(ve.Problems, "\n")
	for _, want := range []string{"BitsPerBL", "Vpp", "pattern", "fraction"} {
		if !strings.Contains(joined, want) {
			t.Errorf("problems missing %q:\n%s", want, joined)
		}
	}
}

// TestRejectsNonFiniteToggle: a toggle rate that is not a finite number
// fails to parse at its attribute, and Validate, which a description
// built in Go reaches without the parser, names the segment or logic
// block that carries it.
func TestRejectsNonFiniteToggle(t *testing.T) {
	for _, v := range []string{"NaN", "Inf", "-Inf", "1e308:1e-308"} {
		src := "LogicBlock name=ctrl gates=15000 nmos=0.5um pmos=1.0um pergate=4 density=25% wiring=40% toggle=" + v + "\n"
		var pe *ParseError
		if _, err := ParseString(src); !errors.As(err, &pe) || pe.Line != 1 || pe.Col == 0 || !strings.Contains(pe.Msg, "toggle") {
			t.Errorf("toggle=%s: parse error %v, want one positioned at the toggle attribute", v, err)
		}
	}
	for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		for _, tc := range []struct {
			set  func(d *Description)
			want string
		}{
			{func(d *Description) { d.Signals[0].Toggle = v }, "signal " + Sample1GbDDR3().Signals[0].Name + ": toggle rate"},
			{func(d *Description) { d.LogicBlocks[0].Toggle = v }, "logic block clocktree: toggle rate"},
		} {
			d := Sample1GbDDR3()
			tc.set(d)
			err := d.Validate()
			if err == nil || !strings.Contains(err.Error(), tc.want+" "+fmt.Sprint(v)+" is not finite") {
				t.Errorf("toggle %g: Validate = %v, want a problem %q", v, err, tc.want)
			}
		}
	}
}

// floatFieldCase sets one checked float field of a description and names
// the problem Validate must report for it.
type floatFieldCase struct {
	set  func(d *Description, v float64)
	want string
}

// checkedFloatFields lists every float field Validate checks, on the
// sample.
func checkedFloatFields(t *testing.T) []floatFieldCase {
	t.Helper()
	inside := -1
	for i, s := range Sample1GbDDR3().Signals {
		if s.Inside != nil {
			inside = i
			break
		}
	}
	if inside < 0 {
		t.Fatal("the sample has no inside-form segment")
	}
	sig := func(i int) string { return "signal " + Sample1GbDDR3().Signals[i].Name + ": " }
	return []floatFieldCase{
		{func(d *Description, v float64) { d.Floorplan.WordlinePitch = units.Length(v) }, "floorplan: wordline pitch"},
		{func(d *Description, v float64) { d.Floorplan.BitlinePitch = units.Length(v) }, "floorplan: bitline pitch"},
		{func(d *Description, v float64) { d.Floorplan.BLSAStripeWidth = units.Length(v) }, "floorplan: BLSA stripe width"},
		{func(d *Description, v float64) { d.Floorplan.LWDStripeWidth = units.Length(v) }, "floorplan: LWD stripe width"},
		{func(d *Description, v float64) { d.Floorplan.ActivationFraction = v }, "floorplan: activation fraction"},
		{func(d *Description, v float64) { d.Signals[inside].Fraction = v }, sig(inside) + "fraction"},
		{func(d *Description, v float64) { d.Signals[0].ActiveFrac = v }, sig(0) + "active fraction"},
		{func(d *Description, v float64) { d.Signals[0].Toggle = v }, sig(0) + "toggle rate"},
		{func(d *Description, v float64) { d.Technology.GateOxideLogic = units.Length(v) }, "technology: gate oxide logic"},
		{func(d *Description, v float64) { d.Technology.GateOxideHV = units.Length(v) }, "technology: gate oxide HV"},
		{func(d *Description, v float64) { d.Technology.GateOxideCell = units.Length(v) }, "technology: gate oxide cell"},
		{func(d *Description, v float64) { d.Technology.MinGateLengthLogic = units.Length(v) }, "technology: min gate length logic"},
		{func(d *Description, v float64) { d.Technology.MinGateLengthHV = units.Length(v) }, "technology: min gate length HV"},
		{func(d *Description, v float64) { d.Technology.CellAccessLength = units.Length(v) }, "technology: cell access length"},
		{func(d *Description, v float64) { d.Technology.CellAccessWidth = units.Length(v) }, "technology: cell access width"},
		{func(d *Description, v float64) { d.Technology.BitlineCap = units.Capacitance(v) }, "technology: bitline capacitance"},
		{func(d *Description, v float64) { d.Technology.CellCap = units.Capacitance(v) }, "technology: cell capacitance"},
		{func(d *Description, v float64) { d.Technology.WireCapMWL = units.CapacitancePerLength(v) }, "technology: wire cap master wordline"},
		{func(d *Description, v float64) { d.Technology.WireCapLWL = units.CapacitancePerLength(v) }, "technology: wire cap local wordline"},
		{func(d *Description, v float64) { d.Technology.WireCapSignal = units.CapacitancePerLength(v) }, "technology: wire cap signal"},
		{func(d *Description, v float64) { d.Technology.BitlineToWLShare = v }, "technology: bitline-to-wordline share"},
		{func(d *Description, v float64) { d.Spec.DataRate = units.DataRate(v) }, "specification: data rate"},
		{func(d *Description, v float64) { d.Spec.ControlClock = units.Frequency(v) }, "specification: control clock"},
		{func(d *Description, v float64) { d.Spec.DataClock = units.Frequency(v) }, "specification: data clock"},
		{func(d *Description, v float64) { d.Spec.RowCycle = units.Duration(v) }, "specification: row cycle time"},
		{func(d *Description, v float64) { d.Spec.RowToColumnDelay = units.Duration(v) }, "specification: tRCD="},
		{func(d *Description, v float64) { d.Spec.RefreshInterval = units.Duration(v) }, "specification: tREFI="},
		{func(d *Description, v float64) { d.Spec.CASLatency = units.Duration(v) }, "specification: CL="},
		{func(d *Description, v float64) { d.Electrical.Vdd = units.Voltage(v) }, "electrical: Vdd"},
		{func(d *Description, v float64) { d.Electrical.Vint = units.Voltage(v) }, "electrical: all domain voltages"},
		{func(d *Description, v float64) { d.Electrical.Vbl = units.Voltage(v) }, "electrical: all domain voltages"},
		{func(d *Description, v float64) { d.Electrical.Vpp = units.Voltage(v) }, "electrical: all domain voltages"},
		{func(d *Description, v float64) { d.Electrical.EffInt = v }, "electrical: Vint generator efficiency"},
		{func(d *Description, v float64) { d.Electrical.EffBl = v }, "electrical: Vbl generator efficiency"},
		{func(d *Description, v float64) { d.Electrical.EffPp = v }, "electrical: Vpp generator efficiency"},
		{func(d *Description, v float64) { d.Electrical.ConstantCurrent = units.Current(v) }, "electrical: negative constant current"},
		{func(d *Description, v float64) { d.LogicBlocks[0].AvgNMOSWidth = units.Length(v) }, "logic block clocktree: device widths"},
		{func(d *Description, v float64) { d.LogicBlocks[0].AvgPMOSWidth = units.Length(v) }, "logic block clocktree: device widths"},
		{func(d *Description, v float64) { d.LogicBlocks[0].TransistorsPerGate = v }, "logic block clocktree: transistors per gate"},
		{func(d *Description, v float64) { d.LogicBlocks[0].GateDensity = v }, "logic block clocktree: gate density"},
		{func(d *Description, v float64) { d.LogicBlocks[0].WiringDensity = v }, "logic block clocktree: wiring density"},
		{func(d *Description, v float64) { d.LogicBlocks[0].Toggle = v }, "logic block clocktree: toggle rate"},
	}
}

// rejectsEach sets each checked float field of the sample to v in turn
// and expects a problem naming that field.
func rejectsEach(t *testing.T, v float64) {
	t.Helper()
	for _, tc := range checkedFloatFields(t) {
		d := Sample1GbDDR3()
		tc.set(d, v)
		var ve *ValidationError
		if err := d.Validate(); !errors.As(err, &ve) {
			t.Errorf("%s %v: Validate = %v, want a *ValidationError", tc.want, v, err)
			continue
		}
		found := false
		for _, p := range ve.Problems {
			found = found || strings.HasPrefix(p, tc.want)
		}
		if !found {
			t.Errorf("%s %v: problems %q name no %q", tc.want, v, ve.Problems, tc.want)
		}
	}
}

// TestValidateRejectsNaN sets each checked float field of the sample to
// NaN, as a description built in Go can (the parser rejects NaN), and
// expects a problem naming that field.
func TestValidateRejectsNaN(t *testing.T) { rejectsEach(t, math.NaN()) }

// TestValidateRejectsInf does the same with +Inf and -Inf, which a Go
// caller can set and which passed every check of the form !(v > 0).
func TestValidateRejectsInf(t *testing.T) {
	rejectsEach(t, math.Inf(1))
	rejectsEach(t, math.Inf(-1))
}

func TestValidateSpanNeedsBothEnds(t *testing.T) {
	d := Sample1GbDDR3()
	d.Signals[1].Start = nil // had span form; now end only
	d.Signals[1].Inside = nil
	if err := d.Validate(); err == nil {
		t.Error("expected error for half-open span")
	}
}

func TestDefaultToggle(t *testing.T) {
	if DefaultToggle(SigClock) != 1.0 {
		t.Error("clock toggle should be 1.0")
	}
	if DefaultToggle(SigDataRead) != 0.25 {
		t.Error("data toggle should be 0.25")
	}
	if DefaultToggle(SigControl) >= DefaultToggle(SigDataRead) {
		t.Error("control should toggle less than data")
	}
}

// TestTimingErrorDeterministic: a Timing line with several malformed
// durations reports the first one in canonical attribute order, the same
// text on every parse.
func TestTimingErrorDeterministic(t *testing.T) {
	const src = "Specification\nTiming tRC=abc tRP=xyz tRCD=13.75ns\n"
	texts := map[string]bool{}
	for i := 0; i < 100; i++ {
		_, err := ParseString(src)
		if err == nil {
			t.Fatal("accepted malformed durations")
		}
		texts[err.Error()] = true
	}
	if len(texts) != 1 {
		t.Fatalf("100 parses gave %d error texts, want 1: %v", len(texts), texts)
	}
	for text := range texts {
		if !strings.Contains(text, "attribute tRC:") {
			t.Errorf("error %q does not name tRC", text)
		}
	}
}

// TestParseAllocs bounds the allocations of parsing the sample
// descriptor, so no lookup table is rebuilt per line again.
func TestParseAllocs(t *testing.T) {
	src := Format(Sample1GbDDR3())
	allocs := testing.AllocsPerRun(20, func() {
		if _, err := ParseString(src); err != nil {
			panic(err)
		}
	})
	if allocs > 1500 {
		t.Errorf("Parse allocated %.0f times, want <= 1500", allocs)
	}
}

// TestParsePattern pins the op-list parser that the -pattern flag of
// drampower and the pattern query parameter of /v1/evaluate share,
// error texts included.
func TestParsePattern(t *testing.T) {
	loop, err := ParsePattern(" act nop  READ pre\t")
	if err != nil || len(loop) != 4 || loop[0] != OpActivate || loop[2] != OpRead || loop[3] != OpPrecharge {
		t.Fatalf("ParsePattern = %v, %v", loop, err)
	}
	for in, want := range map[string]string{
		"act jump": `desc: unknown operation "jump"`,
		" \t":      "empty pattern",
	} {
		if _, err := ParsePattern(in); err == nil || err.Error() != want {
			t.Errorf("ParsePattern(%q) error = %v, want %s", in, err, want)
		}
	}
}
