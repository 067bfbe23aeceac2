package sensitivity

import (
	"math"
	"testing"

	"drampower/internal/core"
	"drampower/internal/desc"
	"drampower/internal/engine"
	"drampower/internal/scaling"
)

func sweepFor(t *testing.T, nm float64) []Result {
	t.Helper()
	n, err := scaling.NodeFor(nm)
	if err != nil {
		t.Fatal(err)
	}
	res, err := SweepOpts(n.Description(), engine.Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func rankOf(results []Result, name string) int {
	for i, r := range results {
		if r.Name == name {
			return i + 1
		}
	}
	return -1
}

func TestRegistryApplies(t *testing.T) {
	// Every parameter must actually change the power when varied.
	d := desc.Sample1GbDDR3()
	res, err := SweepCalibratedOpts(d, nil, engine.Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != len(Registry()) {
		t.Fatalf("results: got %d, want %d", len(res), len(Registry()))
	}
	for _, r := range res {
		if r.RangePct <= 0 {
			t.Errorf("parameter %q has no effect on power", r.Name)
		}
		if r.RangePct > 45 {
			t.Errorf("parameter %q range %.1f%% exceeds the direct-proportionality bound", r.Name, r.RangePct)
		}
	}
}

func TestResultsSorted(t *testing.T) {
	res := sweepFor(t, 55)
	for i := 1; i < len(res); i++ {
		if res[i].RangePct > res[i-1].RangePct+1e-12 {
			t.Errorf("results not sorted at %d: %g > %g", i, res[i].RangePct, res[i-1].RangePct)
		}
	}
}

func TestVddDirectlyProportional(t *testing.T) {
	// "A variation of 40% would mean that the power consumption is
	// directly proportional to the value of the varied parameter. This is
	// only the case for the external supply voltage Vdd which is not
	// shown in the chart."
	d := desc.Sample1GbDDR3()
	d.Electrical.ConstantCurrent = 0 // the constant sink scales linearly, not quadratically
	all, err := SweepCalibratedOpts(d, nil, engine.Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	vdd := -1.0
	for _, r := range all {
		if r.Name == "External voltage Vdd" {
			vdd = r.RangePct
		}
	}
	if vdd < 0 {
		t.Fatal("Vdd not in SweepAll results")
	}
	if math.Abs(vdd-40) > 0.5 {
		t.Errorf("Vdd range: got %.2f%%, want 40%%", vdd)
	}
	// ... and it is excluded from the chart sweep.
	chart, err := SweepOpts(d, engine.Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if rankOf(chart, "External voltage Vdd") != -1 {
		t.Error("Vdd should be excluded from the Figure 10 chart")
	}
	// Every charted parameter stays below direct proportionality.
	for _, r := range chart {
		if r.RangePct >= 40 {
			// Vint comes closest but must stay below 40 with the constant
			// sink removed... it can exceed 40*share only if share>1.
			if r.Name != "Internal voltage Vint" && r.RangePct > 40 {
				t.Errorf("%s: range %.1f%% exceeds 40%%", r.Name, r.RangePct)
			}
		}
	}
}

func TestTableIII_VintRanksFirstEverywhere(t *testing.T) {
	// Table III: "Internal voltage Vint" is the #1 sensitivity for the
	// 128M SDR 170nm, the 2G DDR3 55nm and the 16G DDR5 18nm device.
	for _, nm := range []float64{170, 55, 18} {
		res := sweepFor(t, nm)
		if got := res[0].Name; got != "Internal voltage Vint" {
			t.Errorf("%gnm: top sensitivity is %q, want Internal voltage Vint", nm, got)
		}
	}
}

func TestTableIII_ArrayAndLogicPresence(t *testing.T) {
	// Bitline voltage and bitline capacitance rank in the top 10 for the
	// DDR3 and DDR5 devices; the logic gate count ranks in the top 6
	// everywhere (Table III lists both families on every device).
	for _, nm := range []float64{170, 55, 18} {
		res := sweepFor(t, nm)
		if r := rankOf(res, "Number of logic gates"); r < 1 || r > 6 {
			t.Errorf("%gnm: Number of logic gates rank %d, want top 6", nm, r)
		}
	}
	for _, nm := range []float64{55, 18} {
		res := sweepFor(t, nm)
		if r := rankOf(res, "Bitline voltage"); r < 1 || r > 10 {
			t.Errorf("%gnm: Bitline voltage rank %d, want top 10", nm, r)
		}
		if r := rankOf(res, "Bitline capacitance"); r < 1 || r > 10 {
			t.Errorf("%gnm: Bitline capacitance rank %d, want top 10", nm, r)
		}
	}
}

func TestShiftTowardsWiringAndLogic(t *testing.T) {
	// Section IV.B: "Comparing the different DRAM generations shows a
	// shift from direct array related power consumption to signal wiring
	// and logic circuitry power consumption". The specific wire
	// capacitance sensitivity must grow from the SDR device to the DDR5
	// device.
	sdr := sweepFor(t, 170)
	ddr5 := sweepFor(t, 18)
	get := func(res []Result, name string) float64 {
		for _, r := range res {
			if r.Name == name {
				return r.RangePct
			}
		}
		t.Fatalf("parameter %q missing", name)
		return 0
	}
	wireSDR := get(sdr, "Specific wire capacitance")
	wireDDR5 := get(ddr5, "Specific wire capacitance")
	if wireDDR5 <= wireSDR {
		t.Errorf("wire capacitance sensitivity should grow: SDR %.1f%%, DDR5 %.1f%%",
			wireSDR, wireDDR5)
	}
}

func TestCellCapacitanceMattersLittle(t *testing.T) {
	// Section III.C: "The power consumption of a DRAM depends only very
	// little on the cell capacitance."
	for _, nm := range []float64{170, 55, 18} {
		res := sweepFor(t, nm)
		for _, r := range res {
			if r.Name == "Cell capacitance" && r.RangePct > 5 {
				t.Errorf("%gnm: cell capacitance range %.1f%%, expected small", nm, r.RangePct)
			}
		}
	}
}

func TestVoltageLinearity(t *testing.T) {
	// With the charge-referred supply accounting, power responds linearly
	// and symmetrically to each individual internal voltage (the
	// quadratic CV² response only appears when all voltages scale
	// together, i.e. for Vdd with derived domains — Section IV.B).
	res := sweepFor(t, 55)
	for _, r := range res {
		if r.Name == "Internal voltage Vint" || r.Name == "Bitline voltage" {
			if !(r.DeltaUpPct > 0 && r.DeltaDownPct < 0) {
				t.Errorf("%s: deltas not signed as expected: %+.1f / %+.1f",
					r.Name, r.DeltaUpPct, r.DeltaDownPct)
			}
			if math.Abs(r.DeltaUpPct+r.DeltaDownPct) > 0.05*math.Abs(r.DeltaUpPct) {
				t.Errorf("%s: response not symmetric: %+.1f / %+.1f",
					r.Name, r.DeltaUpPct, r.DeltaDownPct)
			}
		}
	}
}

func TestEfficiencyImprovesPower(t *testing.T) {
	// Better generator efficiency lowers power: DeltaUp negative.
	res := sweepFor(t, 55)
	for _, r := range res {
		switch r.Name {
		case "Generator efficiency Vint", "Generator efficiency bitline voltage",
			"Generator efficiency wordline voltage":
			if r.DeltaUpPct >= 0 {
				t.Errorf("%s: +20%% efficiency should reduce power, got %+.1f%%",
					r.Name, r.DeltaUpPct)
			}
		}
	}
}

func TestOxideThicknessInverse(t *testing.T) {
	// Thicker oxide means less gate capacitance and less power.
	res := sweepFor(t, 55)
	for _, r := range res {
		if r.Name == "Gate oxide thickness" && r.DeltaUpPct >= 0 {
			t.Errorf("thicker oxide should reduce power, got %+.1f%%", r.DeltaUpPct)
		}
	}
}

func TestTopHelper(t *testing.T) {
	res := sweepFor(t, 55)
	top := Top(res, 10)
	if len(top) != 10 {
		t.Fatalf("Top(10): got %d", len(top))
	}
	if len(Top(res, 1000)) != len(res) {
		t.Error("Top should clamp to available results")
	}
}

func TestSweepDoesNotMutateInput(t *testing.T) {
	d := desc.Sample1GbDDR3()
	before := desc.Format(d)
	if _, err := SweepOpts(d, engine.Options{Workers: 1}); err != nil {
		t.Fatal(err)
	}
	if desc.Format(d) != before {
		t.Error("Sweep mutated the input description")
	}
}

// raceEnabled is set in race builds (race_test.go).
var raceEnabled bool

// TestSweepAllocs pins the allocations of one serial sweep of the sample:
// the base build, its IDD7 pattern, the registry and the results. The
// variants allocate nothing: each builds in pooled scratch storage and
// takes its IDD loops from the pooled placer's memo. Under the race
// detector, which drops pooled objects at random, the bound is looser.
func TestSweepAllocs(t *testing.T) {
	bound := 80.0
	if raceEnabled {
		bound = 600
	}
	d := desc.Sample1GbDDR3()
	allocs := testing.AllocsPerRun(20, func() {
		if _, err := SweepOpts(d, engine.Options{Workers: 1}); err != nil {
			panic(err)
		}
	})
	if allocs > bound {
		t.Errorf("SweepOpts allocated %.0f times, want <= %.0f", allocs, bound)
	}
}

func TestSweepCalibratedEmptyOverlayIdentical(t *testing.T) {
	d := desc.Sample1GbDDR3()
	plain, err := SweepCalibratedOpts(d, nil, engine.Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	calib, err := SweepCalibratedOpts(d, &desc.Overlay{Name: "noop"}, engine.Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(plain) != len(calib) {
		t.Fatalf("result count differs: %d vs %d", len(plain), len(calib))
	}
	for i := range plain {
		if plain[i] != calib[i] {
			t.Errorf("result %d differs: %+v vs %+v", i, plain[i], calib[i])
		}
	}
}

func TestSweepCalibratedScalesRideAlong(t *testing.T) {
	d := desc.Sample1GbDDR3()
	ov, err := desc.ParseOverlayString("op.rd.energy *= 1.5\nstandby *= 1.5\n")
	if err != nil {
		t.Fatal(err)
	}
	plain, err := SweepCalibratedOpts(d, nil, engine.Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	calib, err := SweepCalibratedOpts(d, ov, engine.Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	// A pure scaling keeps every sensitivity finite and the ranking
	// non-degenerate: the swept circuit parameters still move power.
	if len(calib) != len(plain) {
		t.Fatalf("result count differs")
	}
	var nonzero int
	for _, r := range calib {
		if r.RangePct > 0.01 {
			nonzero++
		}
	}
	if nonzero < len(calib)/2 {
		t.Errorf("calibrated sweep degenerate: only %d/%d parameters move power", nonzero, len(calib))
	}
}

// TestSweepPatternInvariantAcrossKnobs pins the precondition behind the
// sweep's shared-pattern optimization: SweepCalibratedOpts derives the
// IDD7 measurement pattern once from the base model and reuses it for
// every variant. That is only sound while no registry knob changes the
// Spec-derived pattern geometry (banks, bursts, activation grouping) —
// a future knob that does must fail here, not silently skew Figure 10.
func TestSweepPatternInvariantAcrossKnobs(t *testing.T) {
	d := desc.Sample1GbDDR3()
	base, err := core.BuildCalibrated(d.Clone(), nil)
	if err != nil {
		t.Fatal(err)
	}
	want := base.PatternIDD7(0.5)
	for _, p := range Registry() {
		for _, f := range []float64{1 + Variation, 1 - Variation} {
			c := d.Clone()
			p.Apply(c, f)
			m, err := core.BuildCalibrated(c, nil)
			if err != nil {
				t.Fatalf("%s x%g: %v", p.Name, f, err)
			}
			got := m.PatternIDD7(0.5)
			if len(got.Loop) != len(want.Loop) {
				t.Fatalf("%s x%g: pattern length %d, base %d", p.Name, f, len(got.Loop), len(want.Loop))
			}
			for i := range got.Loop {
				if got.Loop[i] != want.Loop[i] {
					t.Fatalf("%s x%g: pattern diverges from base at op %d", p.Name, f, i)
				}
			}
		}
	}
}
