package core_test

import (
	"fmt"
	"path/filepath"
	"reflect"
	"testing"

	"drampower/internal/circuits"
	"drampower/internal/core"
	"drampower/internal/desc"
	"drampower/internal/scaling"
	"drampower/internal/schemes"
	"drampower/internal/sensitivity"
	"drampower/internal/units"
)

// shippedDevices returns the 19 shipped devices (the sample, the testdata
// descriptions and the scaling roadmap nodes), taken from both ends of
// that list in turn, so that neighbours differ in shape and timing: the
// 4-bank SDR nodes sit between 16- and 32-bank DDR4 and DDR5 devices.
func shippedDevices(tb testing.TB) []*desc.Description {
	tb.Helper()
	ds := []*desc.Description{desc.Sample1GbDDR3()}
	files, err := filepath.Glob("../../testdata/*.dram")
	if err != nil {
		tb.Fatal(err)
	}
	for _, f := range files {
		d, err := desc.ParseFile(f)
		if err != nil {
			tb.Fatal(err)
		}
		ds = append(ds, d)
	}
	nodes, err := scaling.BuildAll()
	if err != nil {
		tb.Fatal(err)
	}
	if ds = append(ds, nodes...); len(ds) != 19 {
		tb.Fatalf("%d shipped devices, want 19", len(ds))
	}
	var out []*desc.Description
	for i, j := 0, len(ds)-1; i <= j; i, j = i+1, j-1 {
		out = append(out, ds[i])
		if i != j {
			out = append(out, ds[j])
		}
	}
	return out
}

// modelDiff names the first part in which a and b differ and prints both
// sides, or returns "" when they are equal bit for bit: the parameter
// sets, the calibration, each op's charge items, the background, the
// segments, the die area and the array layout. %#v prints every float64
// exactly (NaN as NaN) and calls no String method; a nil and an empty
// list print alike.
func modelDiff(a, b *core.Model) string {
	type part struct {
		name string
		a, b any
	}
	bg := func(m *core.Model) core.Background {
		bg := m.Background()
		bg.Items = append([]core.BackgroundItem{}, bg.Items...)
		return bg
	}
	parts := []part{
		{"Params", a.Params(), b.Params()},
		{"DerivedParams", a.DerivedParams(), b.DerivedParams()},
		{"calibration", []any{a.Calibrated(), a.CalibrationName()}, []any{b.Calibrated(), b.CalibrationName()}},
		{"Background", bg(a), bg(b)},
		{"Segments", append([]core.ResolvedSegment{}, a.Segments...), append([]core.ResolvedSegment{}, b.Segments...)},
		{"DieArea", a.DieArea(), b.DieArea()},
		{"Array", *a.Array, *b.Array},
	}
	for _, op := range desc.AllOps {
		parts = append(parts, part{"Charges(" + op.String() + ")",
			append([]circuits.ChargeItem{}, a.Charges(op).Items...),
			append([]circuits.ChargeItem{}, b.Charges(op).Items...)})
	}
	for _, p := range parts {
		if x, y := fmt.Sprintf("%#v", p.a), fmt.Sprintf("%#v", p.b); x != y {
			return fmt.Sprintf("%s:\n%s\n%s", p.name, x, y)
		}
	}
	return ""
}

// counted returns the pattern a placement counts: its ops, then nops up
// to its period. The model evaluates each measurement loop from exactly
// these op counts and period.
func counted(place func(core.Put) int64) desc.Pattern {
	var loop []desc.Op
	period := place(func(_ int64, op desc.Op, _ int) { loop = append(loop, op) })
	for int64(len(loop)) < period {
		loop = append(loop, desc.OpNop)
	}
	return desc.Pattern{Loop: loop}
}

// loopDiff names the first measurement-loop figure of the uncalibrated m
// that differs from the evaluation of a fresh placement of its loop.
func loopDiff(m *core.Model) string {
	idd := m.DerivedParams()
	for _, l := range []struct {
		name string
		got  units.Current
		p    desc.Pattern
	}{
		{"IDD0", idd.IDD0, counted(m.PlaceIDD0)},
		{"IDD4R", idd.IDD4R, counted(func(put core.Put) int64 { return m.PlaceIDD4(false, put) })},
		{"IDD4W", idd.IDD4W, counted(func(put core.Put) int64 { return m.PlaceIDD4(true, put) })},
		{"IDD5", idd.IDD5, counted(m.PlaceIDD5)},
		{"IDD7", idd.IDD7, counted(func(put core.Put) int64 { return m.PlaceIDD7(0, put) })},
	} {
		if want := m.EvaluatePattern(l.p).Current; l.got != want {
			return fmt.Sprintf("%s %#v, placed %#v", l.name, l.got, want)
		}
	}
	half := counted(func(put core.Put) int64 { return m.PlaceIDD7(0.5, put) })
	if got, want := m.EnergyPerBitIDD7(), m.EvaluatePattern(half).EnergyPerBit; got != want {
		return fmt.Sprintf("EnergyPerBitIDD7 %#v, placed %#v", got, want)
	}
	if got, want := m.BurstsPerActivation(), m.PatternIDD7(0).Counts()[desc.OpRead]/m.D.Spec.Banks(); got != want {
		return fmt.Sprintf("BurstsPerActivation %d, placed %d", got, want)
	}
	return ""
}

// TestVariantMatchesFreshBuild builds every registry knob at x0.8 and
// x1.2 and every scheme through core.Variant, on each shipped device and
// on its twin with one bank address bit fewer, which shares its timing.
// Every other change runs under a calibration overlay, alternating
// between a device and its twin, so each change runs both ways on every
// device. Each variant must
// equal Build of a Clone with the same change, bit for bit, description
// included, and its loop figures must match a fresh placement: the
// scratch keeps nothing of the variant before it, and the loops placed
// for one device serve another only when its timing and bank count
// match.
func TestVariantMatchesFreshBuild(t *testing.T) {
	ov, err := desc.ParseOverlayString("standby = 60mW\nop.act.energy *= 1.3\n")
	if err != nil {
		t.Fatal(err)
	}
	type change struct {
		name  string
		apply func(*desc.Description)
	}
	var changes []change
	for _, p := range sensitivity.Registry() {
		for _, f := range []float64{1 - sensitivity.Variation, 1 + sensitivity.Variation} {
			changes = append(changes, change{fmt.Sprintf("%s x%g", p.Name, f), func(d *desc.Description) { p.Apply(d, f) }})
		}
	}
	for _, s := range schemes.All() {
		changes = append(changes, change{s.Name, s.Apply})
	}
	var bases []*desc.Description
	for _, d := range shippedDevices(t) {
		twin := d.Clone()
		twin.Spec.BankAddrBits--
		bases = append(bases, d, twin)
	}
	for bi, base := range bases {
		for i, c := range changes {
			o := []*desc.Overlay{nil, ov}[(bi+i)%2]
			want := base.Clone()
			c.apply(want)
			fresh, err := core.BuildCalibrated(want, o)
			if err != nil {
				t.Fatalf("%s, %d banks, %s: %v", base.Name, base.Spec.Banks(), c.name, err)
			}
			err = core.Variant(base, o, c.apply, func(m *core.Model) error {
				if diff := modelDiff(m, fresh); diff != "" {
					return fmt.Errorf("differs from a fresh build in %s", diff)
				}
				if !reflect.DeepEqual(m.D, want) {
					return fmt.Errorf("its description differs from a changed clone")
				}
				if o == nil {
					if diff := loopDiff(m); diff != "" {
						return fmt.Errorf("loops differ from a fresh placement: %s", diff)
					}
				}
				return nil
			})
			if err != nil {
				t.Fatalf("%s, %d banks, %s: %v", base.Name, base.Spec.Banks(), c.name, err)
			}
		}
	}
}
