package schemes

import (
	"math"
	"strings"
	"testing"

	"drampower/internal/desc"
	"drampower/internal/engine"
	"drampower/internal/scaling"
)

func evaluate(t *testing.T) []Result {
	t.Helper()
	res, err := EvaluateOpts(desc.Sample1GbDDR3(), engine.Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func byName(t *testing.T, res []Result, name string) Result {
	t.Helper()
	for _, r := range res {
		if strings.Contains(r.Name, name) {
			return r
		}
	}
	t.Fatalf("scheme %q not in results", name)
	return Result{}
}

func TestEvaluateShape(t *testing.T) {
	res := evaluate(t)
	if len(res) != len(All())+1 {
		t.Fatalf("results: got %d, want %d", len(res), len(All())+1)
	}
	if !strings.Contains(res[0].Name, "baseline") {
		t.Errorf("first result should be the baseline, got %q", res[0].Name)
	}
	if res[0].EnergyDeltaPct != 0 || res[0].AreaDeltaPct != 0 {
		t.Errorf("baseline deltas should be zero: %+v", res[0])
	}
	for _, r := range res {
		if r.EnergyPerBit <= 0 {
			t.Errorf("%s: non-positive energy per bit", r.Name)
		}
		if r.DieAreaMM2 <= 0 {
			t.Errorf("%s: non-positive die area", r.Name)
		}
	}
}

func TestSelectiveBitlineActivation(t *testing.T) {
	res := evaluate(t)
	r := byName(t, res, "selective bitline activation")
	// Row-activation energy dominates random traffic, so activating 1/16
	// of the row saves a large share of the energy per bit...
	if r.EnergyDeltaPct > -25 {
		t.Errorf("SBA energy delta %.1f%%, want a saving beyond 25%%", r.EnergyDeltaPct)
	}
	// ...but the 16x wordline segmentation must cost substantial area
	// (Section II: doubling the number of on-pitch blocks is "even worse").
	if r.AreaDeltaPct < 20 {
		t.Errorf("SBA area delta %.1f%%, want a substantial increase", r.AreaDeltaPct)
	}
}

func TestSingleSubarrayAccess(t *testing.T) {
	res := evaluate(t)
	r := byName(t, res, "single sub-array")
	if r.EnergyDeltaPct > -30 {
		t.Errorf("SSA energy delta %.1f%%, want a saving beyond 30%%", r.EnergyDeltaPct)
	}
	if r.AreaDeltaPct < 10 {
		t.Errorf("SSA area delta %.1f%%, want a clear increase", r.AreaDeltaPct)
	}
}

func TestSegmentedDataLines(t *testing.T) {
	res := evaluate(t)
	r := byName(t, res, "segmented data lines")
	// A center-stripe-only change: small energy saving, no area cost.
	if r.EnergyDeltaPct >= 0 {
		t.Errorf("segmented data lines should save energy, got %+.2f%%", r.EnergyDeltaPct)
	}
	if r.EnergyDeltaPct < -15 {
		t.Errorf("segmented data lines saving %.1f%% implausibly large", r.EnergyDeltaPct)
	}
	if math.Abs(r.AreaDeltaPct) > 0.5 {
		t.Errorf("segmented data lines area delta %.2f%%, want ~0", r.AreaDeltaPct)
	}
}

func TestReducedPageScheme(t *testing.T) {
	res := evaluate(t)
	r := byName(t, res, "reduced page")
	// The paper's own proposal: row-energy saving comparable to the
	// re-architecting schemes at a small area cost.
	if r.EnergyDeltaPct > -25 {
		t.Errorf("reduced page energy delta %.1f%%, want beyond 25%% saving", r.EnergyDeltaPct)
	}
	if r.AreaDeltaPct > 5 {
		t.Errorf("reduced page area delta %.1f%%, want small", r.AreaDeltaPct)
	}
	sba := byName(t, res, "selective bitline activation")
	if r.AreaDeltaPct >= sba.AreaDeltaPct {
		t.Errorf("reduced page (%.1f%% area) should be cheaper than SBA (%.1f%%)",
			r.AreaDeltaPct, sba.AreaDeltaPct)
	}
}

func TestMiniRankPerDevicePenalty(t *testing.T) {
	res := evaluate(t)
	r := byName(t, res, "half datapath")
	// Per device, halving the width amortizes the row energy over fewer
	// bits: energy per bit rises.
	if r.EnergyDeltaPct <= 0 {
		t.Errorf("mini-rank per-device energy should rise, got %+.1f%%", r.EnergyDeltaPct)
	}
	if math.Abs(r.AreaDeltaPct) > 1 {
		t.Errorf("mini-rank area delta %.2f%%, want ~0", r.AreaDeltaPct)
	}
}

func TestSchemesDoNotMutateBaseline(t *testing.T) {
	d := desc.Sample1GbDDR3()
	before := desc.Format(d)
	if _, err := EvaluateOpts(d, engine.Options{Workers: 1}); err != nil {
		t.Fatal(err)
	}
	if desc.Format(d) != before {
		t.Error("Evaluate mutated the baseline description")
	}
}

func TestSchemesOnGenerationDevices(t *testing.T) {
	// The transforms must stay valid on other generations too.
	for _, nm := range []float64{65, 36} {
		n, err := scaling.NodeFor(nm)
		if err != nil {
			t.Fatal(err)
		}
		res, err := EvaluateOpts(n.Description(), engine.Options{Workers: 1})
		if err != nil {
			t.Fatalf("%gnm: %v", nm, err)
		}
		sba := byName(t, res, "selective bitline activation")
		if sba.EnergyDeltaPct >= 0 {
			t.Errorf("%gnm: SBA should save energy, got %+.1f%%", nm, sba.EnergyDeltaPct)
		}
	}
}

func TestParetoNote(t *testing.T) {
	cases := []struct {
		r    Result
		want string
	}{
		{Result{EnergyDeltaPct: -40, AreaDeltaPct: 0.2}, "negligible area cost"},
		{Result{EnergyDeltaPct: -40, AreaDeltaPct: 30}, "saves 40% energy for 30.0% area"},
		{Result{EnergyDeltaPct: 0.5}, "energy neutral"},
		{Result{EnergyDeltaPct: 90}, "costs 90% energy per device bit"},
	}
	for _, c := range cases {
		if got := ParetoNote(c.r); !strings.Contains(got, c.want) {
			t.Errorf("ParetoNote(%+v) = %q, want containing %q", c.r, got, c.want)
		}
	}
}

func TestActivationFractionValidated(t *testing.T) {
	d := desc.Sample1GbDDR3()
	d.Floorplan.ActivationFraction = 1.5
	if err := d.Validate(); err == nil {
		t.Error("activation fraction > 1 should fail validation")
	}
	d.Floorplan.ActivationFraction = 0.5
	if err := d.Validate(); err != nil {
		t.Errorf("activation fraction 0.5 should validate: %v", err)
	}
}

// raceEnabled is set in race builds (race_test.go).
var raceEnabled bool

// TestEvaluateAllocs pins the allocations of one serial comparison on the
// sample: the baseline build, the scheme list and the results. The
// scheme variants allocate nothing: each builds in pooled scratch
// storage and takes its IDD loops from the pooled placer's memo. Under
// the race detector, which drops pooled objects at random, the bound is
// looser.
func TestEvaluateAllocs(t *testing.T) {
	bound := 25.0
	if raceEnabled {
		bound = 120
	}
	d := desc.Sample1GbDDR3()
	allocs := testing.AllocsPerRun(20, func() {
		if _, err := EvaluateOpts(d, engine.Options{Workers: 1}); err != nil {
			panic(err)
		}
	})
	if allocs > bound {
		t.Errorf("EvaluateOpts allocated %.0f times, want <= %.0f", allocs, bound)
	}
}
