package circuits

import (
	"math"
	"testing"
	"testing/quick"

	"drampower/internal/desc"
	"drampower/internal/geom"
	"drampower/internal/tech"
	"drampower/internal/units"
)

func setup(t *testing.T) (tech.Params, *desc.Description, *geom.ArrayLayout) {
	t.Helper()
	d := desc.Sample1GbDDR3()
	g := new(geom.Grid)
	if err := g.Resolve(&d.Floorplan); err != nil {
		t.Fatal(err)
	}
	w, h, err := geom.ArrayBlockExtents(g)
	if err != nil {
		t.Fatal(err)
	}
	a := new(geom.ArrayLayout)
	if err := a.Resolve(&d.Floorplan, w, h); err != nil {
		t.Fatal(err)
	}
	return tech.Params{T: &d.Technology}, d, a
}

func findItem(t *testing.T, items []ChargeItem, name string) ChargeItem {
	t.Helper()
	for _, it := range items {
		if it.Name == name {
			return it
		}
	}
	t.Fatalf("item %q not found in %v", name, itemNames(items))
	return ChargeItem{}
}

func itemNames(items []ChargeItem) []string {
	names := make([]string, len(items))
	for i, it := range items {
		names[i] = it.Name
	}
	return names
}

func TestChargeItemMath(t *testing.T) {
	it := ChargeItem{Cap: units.Femtofarads(100), Events: 3}
	q := it.Charge(2)
	if got := float64(q); math.Abs(got-600e-15) > 1e-24 {
		t.Errorf("charge: got %g, want 600fC", got)
	}
	e := it.Energy(2)
	if got := float64(e); math.Abs(got-1200e-15) > 1e-24 {
		t.Errorf("energy: got %g, want 1.2pJ", got)
	}
}

func TestActivateItems(t *testing.T) {
	p, d, a := setup(t)
	items := ActivateItems(nil, p, d, a)

	sensing := findItem(t, items, "bitline sensing")
	if sensing.Domain != desc.DomainVbl {
		t.Errorf("bitline sensing domain: got %v", sensing.Domain)
	}
	if sensing.Events != float64(a.PageBits) {
		t.Errorf("bitline sensing events: got %g, want %d", sensing.Events, a.PageBits)
	}
	// Effective cap is half the bitline cap.
	if math.Abs(float64(sensing.Cap)-0.5*float64(d.Technology.BitlineCap)) > 1e-24 {
		t.Errorf("bitline sensing cap: got %v", sensing.Cap)
	}
	// Bitline sensing charge for a 16k-ish page at 80fF/1.0V should be in
	// the high hundreds of picocoulombs.
	q := sensing.Charge(d.Electrical.Vbl)
	if qn := float64(q) / 1e-9; qn < 0.3 || qn > 1.5 {
		t.Errorf("bitline sensing charge out of ballpark: %g nC", qn)
	}

	mwl := findItem(t, items, "master wordline")
	if mwl.Domain != desc.DomainVpp {
		t.Errorf("master wordline domain: got %v", mwl.Domain)
	}
	if mwl.Events != 1 {
		t.Errorf("master wordline events: got %g", mwl.Events)
	}
	// A ~2mm M2 wire at 0.25fF/um is ~475fF plus device loads.
	if ff := mwl.Cap.Femtofarads(); ff < 400 || ff > 900 {
		t.Errorf("master wordline cap out of ballpark: %g fF", ff)
	}

	lwl := findItem(t, items, "local wordlines")
	if lwl.Events != float64(a.SubarraysAlongWL) {
		t.Errorf("local wordline events: got %g, want %d", lwl.Events, a.SubarraysAlongWL)
	}
	// LWL: 84.5um(wrong dir? ~56um) wire + 512 cell gates (~0.029fF each)
	// + driver junctions: tens of fF.
	if ff := lwl.Cap.Femtofarads(); ff < 10 || ff > 100 {
		t.Errorf("local wordline cap out of ballpark: %g fF", ff)
	}

	// Cell restore must be much smaller than bitline sensing (the paper:
	// power depends only very little on the cell capacitance).
	restore := findItem(t, items, "cell restore")
	if float64(restore.Cap) >= float64(sensing.Cap) {
		t.Errorf("cell restore cap (%v) should be below bitline sensing (%v)",
			restore.Cap, sensing.Cap)
	}

	// No bitline multiplexers in an open architecture.
	for _, it := range items {
		if it.Name == "bitline multiplexers" {
			t.Error("open architecture should not have bitline multiplexers")
		}
	}
}

func TestActivateItemsFolded(t *testing.T) {
	p, d, a := setup(t)
	d.Floorplan.Arch = desc.Folded
	d.Technology.BLSAMuxWidth = units.Micrometers(0.4)
	d.Technology.BLSAMuxLength = units.Nanometers(90)
	items := ActivateItems(nil, p, d, a)
	mux := findItem(t, items, "bitline multiplexers")
	if mux.Domain != desc.DomainVpp {
		t.Errorf("mux domain: got %v", mux.Domain)
	}
	if mux.Events != float64(a.PageBits) {
		t.Errorf("mux events: got %g", mux.Events)
	}
}

func TestPrechargeItems(t *testing.T) {
	p, d, a := setup(t)
	items := PrechargeItems(nil, p, d, a)
	eq := findItem(t, items, "equalize gates")
	if eq.Domain != desc.DomainVpp {
		t.Errorf("equalize domain: got %v", eq.Domain)
	}
	if eq.Events != float64(a.PageBits) {
		t.Errorf("equalize events: got %g", eq.Events)
	}
	// Precharge must cost much less than activate: no bitline charge from
	// the supply (midlevel precharge via charge sharing).
	actItems := ActivateItems(nil, p, d, a)
	actE, preE := 0.0, 0.0
	for _, it := range actItems {
		v, _ := d.Electrical.DomainVoltageAndEff(it.Domain)
		actE += float64(it.Energy(v))
	}
	for _, it := range items {
		v, _ := d.Electrical.DomainVoltageAndEff(it.Domain)
		preE += float64(it.Energy(v))
	}
	if preE >= actE/2 {
		t.Errorf("precharge energy (%g) should be well below activate (%g)", preE, actE)
	}
}

func TestColumnItemsRead(t *testing.T) {
	p, d, a := setup(t)
	bits := d.Spec.IOWidth * d.Spec.BurstLength // 128
	items := ColumnItems(nil, p, d, a, bits, false)
	csl := findItem(t, items, "column select lines")
	if csl.Events != float64(bits)/float64(d.Technology.BitsPerCSL) {
		t.Errorf("CSL pulses: got %g, want %g", csl.Events,
			float64(bits)/float64(d.Technology.BitsPerCSL))
	}
	ldq := findItem(t, items, "local data lines")
	if ldq.Events != float64(bits) {
		t.Errorf("local DQ events: got %g", ldq.Events)
	}
	// Reads must not flip bitlines.
	for _, it := range items {
		if it.Name == "written bitlines" || it.Name == "written cells" {
			t.Errorf("read column items contain %q", it.Name)
		}
	}
}

func TestColumnItemsWrite(t *testing.T) {
	p, d, a := setup(t)
	bits := 128
	items := ColumnItems(nil, p, d, a, bits, true)
	wb := findItem(t, items, "written bitlines")
	if wb.Events != 0.5*float64(bits) {
		t.Errorf("written bitline events: got %g, want %g", wb.Events, 0.5*float64(bits))
	}
	if wb.Domain != desc.DomainVbl {
		t.Errorf("written bitline domain: got %v", wb.Domain)
	}
	// Write energy exceeds read energy for the same bit count.
	rd := ColumnItems(nil, p, d, a, bits, false)
	we, re := 0.0, 0.0
	for _, it := range items {
		v, _ := d.Electrical.DomainVoltageAndEff(it.Domain)
		we += float64(it.Energy(v))
	}
	for _, it := range rd {
		v, _ := d.Electrical.DomainVoltageAndEff(it.Domain)
		re += float64(it.Energy(v))
	}
	if we <= re {
		t.Errorf("write energy (%g) should exceed read energy (%g)", we, re)
	}
}

func TestColumnItemsZeroBits(t *testing.T) {
	p, d, a := setup(t)
	if items := ColumnItems(nil, p, d, a, 0, false); len(items) != 0 {
		t.Errorf("zero-bit column command should produce no items, got %v", itemNames(items))
	}
}

func TestTransistorCounts(t *testing.T) {
	// Section II: "a typical bitline sense-amplifier stripe has 11
	// transistors per bitline pair" (folded), "a typical local wordline
	// driver stripe has 3 transistors per local wordline".
	if got := BLSATransistorsPerPair(desc.Folded); got != 11 {
		t.Errorf("folded BLSA transistors: got %d, want 11", got)
	}
	if got := BLSATransistorsPerPair(desc.Open); got != 9 {
		t.Errorf("open BLSA transistors: got %d, want 9", got)
	}
	if got := LWDTransistorsPerLine(); got != 3 {
		t.Errorf("LWD transistors: got %d, want 3", got)
	}
}

// Property: activate charge scales linearly with page size (PageBits).
func TestPropActivateLinearInPage(t *testing.T) {
	p, d, a := setup(t)
	f := func(mult uint8) bool {
		m := int(mult%8) + 1
		a1 := *a
		a2 := *a
		a2.PageBits = a1.PageBits * m
		e1 := findItemQuiet(ActivateItems(nil, p, d, &a1), "bitline sensing").Events
		e2 := findItemQuiet(ActivateItems(nil, p, d, &a2), "bitline sensing").Events
		return math.Abs(e2-float64(m)*e1) < 1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: column charge is linear in transferred bits.
func TestPropColumnLinearInBits(t *testing.T) {
	p, d, a := setup(t)
	f := func(nRaw uint8) bool {
		bits := (int(nRaw%16) + 1) * 8
		q1 := totalEnergy(d, ColumnItems(nil, p, d, a, bits, false))
		q2 := totalEnergy(d, ColumnItems(nil, p, d, a, 2*bits, false))
		return math.Abs(q2-2*q1) < 1e-9*q2+1e-30
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func findItemQuiet(items []ChargeItem, name string) ChargeItem {
	for _, it := range items {
		if it.Name == name {
			return it
		}
	}
	return ChargeItem{}
}

func totalEnergy(d *desc.Description, items []ChargeItem) float64 {
	var e float64
	for _, it := range items {
		v, _ := d.Electrical.DomainVoltageAndEff(it.Domain)
		e += float64(it.Energy(v))
	}
	return e
}
