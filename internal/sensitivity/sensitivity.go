// Package sensitivity implements the power-consumption Pareto of
// Section IV.B of the paper (Figure 10, Table III): every model parameter
// is varied by ±20 % and the resulting change of pattern power is
// recorded, ranking the parameters by their impact — "not only to learn
// where power can be saved but also which parameters need to be
// understood well to have an accurate model".
//
// Each variant is built by core.Variant: in pooled scratch storage that
// the next variant reuses, so a variant allocates nothing, and with the
// IDD loops placed once for the device, since no knob changes its timing.
package sensitivity

import (
	"fmt"
	"sort"

	"drampower/internal/core"
	"drampower/internal/desc"
	"drampower/internal/engine"
	"drampower/internal/units"
)

// Parameter is one knob of the sweep: a named, dimensionless scaling
// applied to a copy of the description.
type Parameter struct {
	// Name follows the paper's labels ("Internal voltage Vint",
	// "Specific wire capacitance", "Number of logic gates", ...).
	Name string
	// ExcludedFromChart marks parameters the paper leaves out of
	// Figure 10 (the external supply voltage, whose ±20 % trivially moves
	// power by 40 %).
	ExcludedFromChart bool
	// Apply scales the parameter by the given factor on d.
	Apply func(d *desc.Description, factor float64)
}

// Registry returns the swept parameters. Aggregate entries scale all
// members of a family together, mirroring the paper's grouping (e.g. one
// "Specific wire capacitance" knob, one "Number of logic gates" knob).
func Registry() []Parameter {
	scaleLen := func(l *units.Length, f float64) { *l = units.Length(float64(*l) * f) }
	return []Parameter{
		{Name: "External voltage Vdd", ExcludedFromChart: true,
			Apply: func(d *desc.Description, f float64) {
				d.Electrical.Vdd = units.Voltage(float64(d.Electrical.Vdd) * f)
			}},
		{Name: "Internal voltage Vint",
			Apply: func(d *desc.Description, f float64) {
				d.Electrical.Vint = units.Voltage(float64(d.Electrical.Vint) * f)
			}},
		{Name: "Bitline voltage",
			Apply: func(d *desc.Description, f float64) {
				d.Electrical.Vbl = units.Voltage(float64(d.Electrical.Vbl) * f)
			}},
		{Name: "Wordline voltage Vpp",
			Apply: func(d *desc.Description, f float64) {
				d.Electrical.Vpp = units.Voltage(float64(d.Electrical.Vpp) * f)
			}},
		{Name: "Generator efficiency Vint",
			Apply: func(d *desc.Description, f float64) {
				d.Electrical.EffInt = clampEff(d.Electrical.EffInt * f)
			}},
		{Name: "Generator efficiency bitline voltage",
			Apply: func(d *desc.Description, f float64) {
				d.Electrical.EffBl = clampEff(d.Electrical.EffBl * f)
			}},
		{Name: "Generator efficiency wordline voltage",
			Apply: func(d *desc.Description, f float64) {
				d.Electrical.EffPp = clampEff(d.Electrical.EffPp * f)
			}},
		{Name: "Constant current adder",
			Apply: func(d *desc.Description, f float64) {
				d.Electrical.ConstantCurrent = units.Current(float64(d.Electrical.ConstantCurrent) * f)
			}},
		{Name: "Specific wire capacitance",
			Apply: func(d *desc.Description, f float64) {
				t := &d.Technology
				t.WireCapSignal = units.CapacitancePerLength(float64(t.WireCapSignal) * f)
				t.WireCapMWL = units.CapacitancePerLength(float64(t.WireCapMWL) * f)
				t.WireCapLWL = units.CapacitancePerLength(float64(t.WireCapLWL) * f)
			}},
		{Name: "Bitline capacitance",
			Apply: func(d *desc.Description, f float64) {
				d.Technology.BitlineCap = d.Technology.BitlineCap.Times(f)
			}},
		{Name: "Cell capacitance",
			Apply: func(d *desc.Description, f float64) {
				d.Technology.CellCap = d.Technology.CellCap.Times(f)
			}},
		{Name: "Gate oxide thickness",
			Apply: func(d *desc.Description, f float64) {
				t := &d.Technology
				scaleLen(&t.GateOxideLogic, f)
				scaleLen(&t.GateOxideHV, f)
				scaleLen(&t.GateOxideCell, f)
			}},
		{Name: "Junction capacitance logic",
			Apply: func(d *desc.Description, f float64) {
				t := &d.Technology
				t.JunctionCapLogic = units.CapacitancePerLength(float64(t.JunctionCapLogic) * f)
				t.JunctionCapHV = units.CapacitancePerLength(float64(t.JunctionCapHV) * f)
			}},
		{Name: "Number of logic gates",
			Apply: func(d *desc.Description, f float64) {
				for i := range d.LogicBlocks {
					d.LogicBlocks[i].Gates = int(float64(d.LogicBlocks[i].Gates)*f + 0.5)
				}
			}},
		{Name: "Width NFET logic",
			Apply: func(d *desc.Description, f float64) {
				for i := range d.LogicBlocks {
					scaleLen(&d.LogicBlocks[i].AvgNMOSWidth, f)
				}
				for i := range d.Signals {
					scaleLen(&d.Signals[i].BufNWidth, f)
				}
			}},
		{Name: "Width PFET logic",
			Apply: func(d *desc.Description, f float64) {
				for i := range d.LogicBlocks {
					scaleLen(&d.LogicBlocks[i].AvgPMOSWidth, f)
				}
				for i := range d.Signals {
					scaleLen(&d.Signals[i].BufPWidth, f)
				}
			}},
		{Name: "Logic device density",
			Apply: func(d *desc.Description, f float64) {
				for i := range d.LogicBlocks {
					d.LogicBlocks[i].GateDensity = clampFrac(d.LogicBlocks[i].GateDensity * f)
				}
			}},
		{Name: "Logic wiring density",
			Apply: func(d *desc.Description, f float64) {
				for i := range d.LogicBlocks {
					d.LogicBlocks[i].WiringDensity = clampFrac(d.LogicBlocks[i].WiringDensity * f)
				}
			}},
		{Name: "Sense amplifier device width",
			Apply: func(d *desc.Description, f float64) {
				t := &d.Technology
				for _, w := range []*units.Length{
					&t.BLSASenseNMOSWidth, &t.BLSASensePMOSWidth,
					&t.BLSAEqualizeWidth, &t.BLSABitSwitchWidth,
					&t.BLSAMuxWidth, &t.BLSANSetWidth, &t.BLSAPSetWidth,
				} {
					scaleLen(w, f)
				}
			}},
		{Name: "Row driver device width",
			Apply: func(d *desc.Description, f float64) {
				t := &d.Technology
				for _, w := range []*units.Length{
					&t.MWLDecoderNMOS, &t.MWLDecoderPMOS,
					&t.WLControlLoadNMOS, &t.WLControlLoadPMOS,
					&t.SWDriverNMOS, &t.SWDriverPMOS, &t.SWDriverRestore,
				} {
					scaleLen(w, f)
				}
			}},
		{Name: "Cell access transistor size",
			Apply: func(d *desc.Description, f float64) {
				scaleLen(&d.Technology.CellAccessWidth, f)
				scaleLen(&d.Technology.CellAccessLength, f)
			}},
	}
}

func clampEff(e float64) float64 {
	if e > 1 {
		return 1
	}
	return e
}

func clampFrac(x float64) float64 {
	if x > 1 {
		return 1
	}
	return x
}

// Result records the power response of one parameter.
type Result struct {
	Name string
	// DeltaUpPct / DeltaDownPct are the relative power changes (percent)
	// at +20 % and −20 % of the parameter.
	DeltaUpPct, DeltaDownPct float64
	// RangePct is the full variation |P(+20%) − P(−20%)| / P(base), the
	// quantity of Figure 10 (40 % means directly proportional).
	RangePct float64
}

// Variation is the relative parameter excursion of the sweep (the paper
// uses ±20 %).
const Variation = 0.20

// SweepOpts varies every registry parameter on the given description and
// returns the Figure 10 chart rows sorted by descending range, evaluating
// the description's pattern; parameters excluded from the chart are
// omitted (SweepCalibratedOpts returns every row). One job per parameter
// runs on the batch engine (Workers <= 0 uses runtime.GOMAXPROCS(0)
// workers, 1 runs serially); the results are identical for any worker
// count.
func SweepOpts(d *desc.Description, opts engine.Options) ([]Result, error) {
	all, err := SweepCalibratedOpts(d, nil, opts)
	if err != nil {
		return nil, err
	}
	return ChartRows(all), nil
}

// ChartRows filters a full sweep down to the Figure 10 chart rows,
// dropping parameters marked ExcludedFromChart (in place; the input
// slice is reused).
func ChartRows(all []Result) []Result {
	out := all[:0]
	excluded := map[string]bool{}
	for _, p := range Registry() {
		if p.ExcludedFromChart {
			excluded[p.Name] = true
		}
	}
	for _, r := range all {
		if !excluded[r.Name] {
			out = append(out, r)
		}
	}
	return out
}

// SweepCalibratedOpts runs the full sweep, chart-excluded parameters
// included, with a calibration overlay applied to the base and to every
// parameter variant. Scaling-style calibration entries compose naturally
// with the varied circuit parameters (the overlay ratio rides on top of
// each variant's derived value); absolute overrides pin their parameter
// and null its sensitivity, which is the physically honest reading of
// "this value was measured". A nil or empty overlay sweeps the plain
// description. Each parameter's up/down pair is one job: the jobs only
// read the shared base description (each variant copies it into its own
// scratch, see core.Variant), so any worker count produces the same
// results.
func SweepCalibratedOpts(d *desc.Description, ov *desc.Overlay, opts engine.Options) ([]Result, error) {
	base, err := core.BuildCalibrated(d, ov)
	if err != nil {
		return nil, err
	}
	// The IDD7 measurement pattern depends only on Spec-derived geometry
	// (bank count, burst and activation grouping), which no registry knob
	// touches — every variant would derive the identical pattern, so it is
	// derived once from the base and shared (the ledger each variant builds
	// is what differs; see TestSweepPatternInvariantAcrossKnobs).
	pattern := base.PatternIDD7(0.5)
	basePower := float64(base.PatternPower(pattern))
	if basePower <= 0 {
		return nil, fmt.Errorf("sensitivity: base power is %g", basePower)
	}

	eval := func(p Parameter, factor float64) (power float64, err error) {
		err = core.Variant(d, ov, func(c *desc.Description) { p.Apply(c, factor) }, func(m *core.Model) error {
			power = float64(m.PatternPower(pattern))
			return nil
		})
		if err != nil {
			return 0, fmt.Errorf("sensitivity: %s x%g: %w", p.Name, factor, err)
		}
		return power, nil
	}

	results, err := engine.Map(Registry(), func(_ int, p Parameter) (Result, error) {
		up, err := eval(p, 1+Variation)
		if err != nil {
			return Result{}, err
		}
		down, err := eval(p, 1-Variation)
		if err != nil {
			return Result{}, err
		}
		return Result{
			Name:         p.Name,
			DeltaUpPct:   100 * (up - basePower) / basePower,
			DeltaDownPct: 100 * (down - basePower) / basePower,
			RangePct:     100 * abs(up-down) / basePower,
		}, nil
	}, opts)
	if err != nil {
		return nil, err
	}
	sort.SliceStable(results, func(i, j int) bool {
		return results[i].RangePct > results[j].RangePct
	})
	return results, nil
}

// Top returns the n highest-impact results (Table III shows the top 10).
func Top(results []Result, n int) []Result {
	if n > len(results) {
		n = len(results)
	}
	return results[:n]
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}
