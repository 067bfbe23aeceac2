// Package datasheet embeds the vendor datasheet IDD values the paper
// verifies its model against (Section IV.A, Figures 8–9, references [22]
// and [23]): 1 Gb DDR2 parts (Samsung K4T1G044QQ family, Hynix
// H5PS1G63EFR, Micron MT47H64M16, Elpida EDE1116ACBG, Qimonda
// HYI18T1G160C2) and 1 Gb DDR3 parts (Samsung K4B1G0446D family, Hynix
// H5TQ1G63AFP, Micron MT41J64M16, Elpida EDJ1116BBSE, Qimonda
// IDSH1G-04A1F1C).
//
// The numbers are the typical IDD specifications published in the
// 2007–2010 datasheets, transcribed to the nearest 5 mA. They are a
// comparison target, not a calibration input: the point of Figures 8–9 is
// that datasheet values show a large vendor spread ("due to the different
// technologies used ... and differences in the power efficiencies of the
// approach used by different DRAM vendors") and that the model lands
// within it.
package datasheet

import (
	"fmt"
	"sort"

	"drampower/internal/core"
	"drampower/internal/engine"
	"drampower/internal/scaling"
	"drampower/internal/units"
)

// Metric is one of the compared supply currents.
type Metric string

// Compared metrics (Idd0 is the row operation current, Idd4R/Idd4W the
// gapless read/write currents; the labels follow the figures).
const (
	Idd0  Metric = "Idd0"
	Idd4R Metric = "Idd4R"
	Idd4W Metric = "Idd4W"
)

// Vendors in the dataset, keyed like the references.
var Vendors = []string{"Samsung", "Hynix", "Micron", "Elpida", "Qimonda"}

// Point is one comparison point of Figure 8 or 9: a metric at a data rate
// and device width, with the per-vendor datasheet values in milliamperes.
type Point struct {
	Metric       Metric
	DataRateMbps int
	IOWidth      int
	// VendorMA maps vendor name to the typical datasheet value in mA.
	VendorMA map[string]float64
}

// Label renders the x-axis label of the figures, e.g. "Idd0 533 x4".
func (p Point) Label() string {
	return fmt.Sprintf("%s %d x%d", p.Metric, p.DataRateMbps, p.IOWidth)
}

// Min, Max and Mean summarize the vendor spread.
func (p Point) Min() float64 {
	first := true
	var m float64
	for _, v := range p.VendorMA {
		if first || v < m {
			m, first = v, false
		}
	}
	return m
}

// Max returns the largest vendor value.
func (p Point) Max() float64 {
	var m float64
	for _, v := range p.VendorMA {
		if v > m {
			m = v
		}
	}
	return m
}

// Mean returns the average vendor value.
func (p Point) Mean() float64 {
	var s float64
	for _, v := range p.VendorMA {
		s += v
	}
	return s / float64(len(p.VendorMA))
}

func pt(metric Metric, rate, width int, samsung, hynix, micron, elpida, qimonda float64) Point {
	return Point{Metric: metric, DataRateMbps: rate, IOWidth: width,
		VendorMA: map[string]float64{
			"Samsung": samsung, "Hynix": hynix, "Micron": micron,
			"Elpida": elpida, "Qimonda": qimonda,
		}}
}

// DDR2Points returns the comparison points of Figure 8 (1 Gb DDR2).
func DDR2Points() []Point {
	return []Point{
		pt(Idd0, 533, 4, 65, 70, 85, 60, 75),
		pt(Idd0, 800, 8, 75, 80, 95, 70, 85),
		pt(Idd4R, 533, 4, 95, 105, 115, 90, 100),
		pt(Idd4R, 533, 8, 100, 110, 125, 95, 105),
		pt(Idd4R, 800, 8, 135, 145, 160, 125, 140),
		pt(Idd4R, 800, 16, 175, 190, 210, 160, 185),
		pt(Idd4W, 533, 4, 90, 100, 110, 85, 95),
		pt(Idd4W, 800, 8, 125, 135, 155, 120, 135),
		pt(Idd4W, 800, 16, 165, 185, 205, 155, 180),
	}
}

// DDR3Points returns the comparison points of Figure 9 (1 Gb DDR3).
func DDR3Points() []Point {
	return []Point{
		pt(Idd0, 1066, 8, 55, 60, 70, 50, 65),
		pt(Idd0, 1600, 16, 65, 70, 85, 60, 75),
		pt(Idd4R, 1066, 8, 95, 105, 120, 90, 110),
		pt(Idd4R, 1600, 8, 130, 140, 160, 120, 145),
		pt(Idd4R, 1600, 16, 175, 190, 220, 160, 200),
		pt(Idd4W, 1066, 8, 90, 100, 115, 85, 105),
		pt(Idd4W, 1600, 8, 125, 135, 155, 115, 140),
		pt(Idd4W, 1600, 16, 170, 185, 215, 155, 195),
	}
}

// Comparison is one row of the model-vs-datasheet tables behind
// Figures 8–9.
type Comparison struct {
	Point Point
	// ModelMA maps a technology label ("65nm", "55nm") to the model's
	// value in mA.
	ModelMA map[string]float64
}

// WithinSpread reports whether at least one of the model's technology
// points lands within the vendor spread widened by the given relative
// margin (the paper's "good agreement" criterion — datasheet values
// themselves spread by 30 % and more).
func (c Comparison) WithinSpread(margin float64) bool {
	lo := c.Point.Min() * (1 - margin)
	hi := c.Point.Max() * (1 + margin)
	for _, v := range c.ModelMA {
		if v >= lo && v <= hi {
			return true
		}
	}
	return false
}

// Standard selects the figure to reproduce.
type Standard int

// The two verification standards.
const (
	DDR2 Standard = iota
	DDR3
)

// String names the standard.
func (s Standard) String() string {
	if s == DDR2 {
		return "DDR2"
	}
	return "DDR3"
}

// CompareOpts evaluates the model against the datasheet points of the
// given standard. Following Section IV.A, DDR2 devices are modeled in
// typical 75 nm and 65 nm technologies and DDR3 devices in 65 nm and 55 nm
// — "the comparison assumed technology nodes which were typically used for
// high volume parts in the time frame the DRAMs ... were on the market".
// The distinct (node, width, rate) models build on the worker pool
// (Workers: 1 runs serially), then the comparison rows assemble serially
// from the cache. Any worker count produces the same rows in the same
// order.
func CompareOpts(std Standard, opts engine.Options) ([]Comparison, error) {
	var points []Point
	var nodesNm []float64
	var iface scaling.Interface
	switch std {
	case DDR2:
		points = DDR2Points()
		nodesNm = []float64{75, 65}
		iface = scaling.DDR2
	default:
		points = DDR3Points()
		nodesNm = []float64{65, 55}
		iface = scaling.DDR3
	}

	// Model cache: one build per (node, width, rate).
	type key struct {
		nm    float64
		width int
		rate  int
	}
	var keys []key
	seen := map[key]bool{}
	for _, p := range points {
		for _, nm := range nodesNm {
			k := key{nm, p.IOWidth, p.DataRateMbps}
			if !seen[k] {
				seen[k] = true
				keys = append(keys, k)
			}
		}
	}
	built, err := engine.Map(keys, func(_ int, k key) (*core.Model, error) {
		dv, err := scaling.DeviceFor(k.nm, iface, 1<<30, k.width,
			units.DataRate(float64(k.rate)*1e6))
		if err != nil {
			return nil, err
		}
		m, err := core.Build(dv.Build())
		if err != nil {
			return nil, fmt.Errorf("datasheet: %s x%d @%dMbps %gnm: %w",
				std, k.width, k.rate, k.nm, err)
		}
		return m, nil
	}, opts)
	if err != nil {
		return nil, err
	}
	models := make(map[key]*core.Model, len(keys))
	for i, k := range keys {
		models[k] = built[i]
	}

	var out []Comparison
	for _, p := range points {
		c := Comparison{Point: p, ModelMA: map[string]float64{}}
		for _, nm := range nodesNm {
			m := models[key{nm, p.IOWidth, p.DataRateMbps}]
			idd := m.IDD()
			var val units.Current
			switch p.Metric {
			case Idd0:
				val = idd.IDD0
			case Idd4R:
				val = idd.IDD4R
			case Idd4W:
				val = idd.IDD4W
			}
			c.ModelMA[fmt.Sprintf("%.0fnm", nm)] = val.Milliamps()
		}
		out = append(out, c)
	}
	return out, nil
}

// SpreadStats reports the vendor spread of a point set: the mean of
// max/min ratios, demonstrating the "quite large spread" of Section IV.A.
func SpreadStats(points []Point) (meanRatio float64) {
	if len(points) == 0 {
		return 0
	}
	var sum float64
	for _, p := range points {
		sum += p.Max() / p.Min()
	}
	return sum / float64(len(points))
}

// SortedVendors returns the vendor values of a point in a stable vendor
// order for table output.
func (p Point) SortedVendors() []struct {
	Vendor string
	MA     float64
} {
	keys := make([]string, 0, len(p.VendorMA))
	for k := range p.VendorMA {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	out := make([]struct {
		Vendor string
		MA     float64
	}, len(keys))
	for i, k := range keys {
		out[i] = struct {
			Vendor string
			MA     float64
		}{k, p.VendorMA[k]}
	}
	return out
}
