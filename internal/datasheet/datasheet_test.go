package datasheet

import (
	"testing"

	"drampower/internal/engine"
)

func TestDatasetShape(t *testing.T) {
	for _, set := range [][]Point{DDR2Points(), DDR3Points()} {
		if len(set) < 8 {
			t.Fatalf("dataset too small: %d points", len(set))
		}
		for _, p := range set {
			if len(p.VendorMA) != len(Vendors) {
				t.Errorf("%s: %d vendors, want %d", p.Label(), len(p.VendorMA), len(Vendors))
			}
			for _, v := range Vendors {
				val, ok := p.VendorMA[v]
				if !ok {
					t.Errorf("%s: missing vendor %s", p.Label(), v)
					continue
				}
				if val < 20 || val > 400 {
					t.Errorf("%s %s: %g mA implausible", p.Label(), v, val)
				}
			}
			if p.Min() > p.Mean() || p.Mean() > p.Max() {
				t.Errorf("%s: min/mean/max ordering broken", p.Label())
			}
		}
	}
}

func TestPointLabel(t *testing.T) {
	p := DDR2Points()[0]
	if p.Label() != "Idd0 533 x4" {
		t.Errorf("label: got %q, want the paper's axis format", p.Label())
	}
}

func TestVendorSpreadIsLarge(t *testing.T) {
	// Section IV.A: "the data sheet values show a quite large spread".
	for _, c := range []struct {
		name   string
		points []Point
	}{{"DDR2", DDR2Points()}, {"DDR3", DDR3Points()}} {
		ratio := SpreadStats(c.points)
		if ratio < 1.2 {
			t.Errorf("%s: vendor spread ratio %.2f, expected > 1.2", c.name, ratio)
		}
		if ratio > 2.0 {
			t.Errorf("%s: vendor spread ratio %.2f implausibly large", c.name, ratio)
		}
	}
}

func TestFig8DDR2Comparison(t *testing.T) {
	rows, err := CompareOpts(DDR2, engine.Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != len(DDR2Points()) {
		t.Fatalf("rows: got %d", len(rows))
	}
	for _, c := range rows {
		if len(c.ModelMA) != 2 {
			t.Errorf("%s: want 2 technology points, got %v", c.Point.Label(), c.ModelMA)
		}
		if _, ok := c.ModelMA["75nm"]; !ok {
			t.Errorf("%s: missing 75nm model value", c.Point.Label())
		}
		if !c.WithinSpread(0.25) {
			t.Errorf("%s: model %v outside sheet [%g, %g] ±25%%",
				c.Point.Label(), c.ModelMA, c.Point.Min(), c.Point.Max())
		}
	}
}

func TestFig9DDR3Comparison(t *testing.T) {
	rows, err := CompareOpts(DDR3, engine.Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range rows {
		if _, ok := c.ModelMA["55nm"]; !ok {
			t.Errorf("%s: missing 55nm model value", c.Point.Label())
		}
		if !c.WithinSpread(0.25) {
			t.Errorf("%s: model %v outside sheet [%g, %g] ±25%%",
				c.Point.Label(), c.ModelMA, c.Point.Min(), c.Point.Max())
		}
	}
}

func TestModelDescribesDependencies(t *testing.T) {
	// "The dependency of current on operating frequency, interface
	// standard, I/O width and type of operation is described correctly."
	rows, err := CompareOpts(DDR3, engine.Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	get := func(metric Metric, rate, width int) map[string]float64 {
		for _, c := range rows {
			if c.Point.Metric == metric && c.Point.DataRateMbps == rate &&
				c.Point.IOWidth == width {
				return c.ModelMA
			}
		}
		t.Fatalf("point %s %d x%d not found", metric, rate, width)
		return nil
	}
	// Frequency dependency: Idd4R rises with data rate.
	lo := get(Idd4R, 1066, 8)["55nm"]
	hi := get(Idd4R, 1600, 8)["55nm"]
	if hi <= lo {
		t.Errorf("Idd4R should rise with data rate: %g (1066) vs %g (1600)", lo, hi)
	}
	// Width dependency: Idd4R rises with I/O width at fixed rate.
	x8 := get(Idd4R, 1600, 8)["55nm"]
	x16 := get(Idd4R, 1600, 16)["55nm"]
	if x16 <= x8 {
		t.Errorf("Idd4R should rise with width: x8=%g, x16=%g", x8, x16)
	}
	// Operation dependency: Idd0 < Idd4R at the same point.
	if i0 := get(Idd0, 1600, 16)["55nm"]; i0 >= x16 {
		t.Errorf("Idd0 (%g) should be below Idd4R (%g)", i0, x16)
	}
	// Technology dependency: the newer node draws less.
	for _, c := range rows {
		if c.ModelMA["55nm"] >= c.ModelMA["65nm"] {
			t.Errorf("%s: 55nm (%g) should draw less than 65nm (%g)",
				c.Point.Label(), c.ModelMA["55nm"], c.ModelMA["65nm"])
		}
	}
}

func TestSortedVendorsStable(t *testing.T) {
	p := DDR3Points()[0]
	rows := p.SortedVendors()
	if len(rows) != len(Vendors) {
		t.Fatalf("rows: %d", len(rows))
	}
	for i := 1; i < len(rows); i++ {
		if rows[i-1].Vendor >= rows[i].Vendor {
			t.Errorf("vendors not sorted: %s >= %s", rows[i-1].Vendor, rows[i].Vendor)
		}
	}
}

func TestStandardString(t *testing.T) {
	if DDR2.String() != "DDR2" || DDR3.String() != "DDR3" {
		t.Error("standard names wrong")
	}
}
