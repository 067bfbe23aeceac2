package core

import (
	"math"
	"testing"

	"drampower/internal/circuits"
	"drampower/internal/desc"
	"drampower/internal/units"
)

func mustBuildCalibrated(t *testing.T, src string) *Model {
	t.Helper()
	ov, err := desc.ParseOverlayString(src)
	if err != nil {
		t.Fatal(err)
	}
	m, err := BuildCalibrated(desc.Sample1GbDDR3(), ov)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// TestEmptyOverlayIsNoOp pins the seal-stage contract: a nil or empty
// overlay produces a model whose every observable is bit-identical to
// Build's.
func TestEmptyOverlayIsNoOp(t *testing.T) {
	base, err := Build(desc.Sample1GbDDR3())
	if err != nil {
		t.Fatal(err)
	}
	for name, ov := range map[string]*desc.Overlay{
		"nil":   nil,
		"empty": {},
		"named": {Name: "just a name"},
	} {
		m, err := BuildCalibrated(desc.Sample1GbDDR3(), ov)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if m.Calibrated() {
			t.Errorf("%s: model reports calibrated", name)
		}
		if m.Params() != base.Params() {
			t.Errorf("%s: params differ:\n%+v\n%+v", name, m.Params(), base.Params())
		}
		if m.Params() != m.DerivedParams() {
			t.Errorf("%s: params differ from derived", name)
		}
		br, cr := base.EvaluatePattern(base.PatternIDD7(0.5)), m.EvaluatePattern(m.PatternIDD7(0.5))
		if br.Power != cr.Power || br.Background != cr.Background || br.Command != cr.Command {
			t.Errorf("%s: pattern result differs: %+v vs %+v", name, br, cr)
		}
		for g, p := range br.ByGroup {
			if cr.ByGroup[g] != p {
				t.Errorf("%s: group %v: %v != %v", name, g, cr.ByGroup[g], p)
			}
		}
		if base.IDD() != m.IDD() {
			t.Errorf("%s: IDD differs", name)
		}
	}
}

// TestDerivedMatchesLegacyAccounting checks the derive stage reproduces
// the quantities it replaced: the params powers equal the background
// ledger total and the IDD currents equal fresh pattern evaluations.
func TestDerivedMatchesLegacyAccounting(t *testing.T) {
	m, err := Build(desc.Sample1GbDDR3())
	if err != nil {
		t.Fatal(err)
	}
	p := m.Params()
	if p.StandbyPower != m.Background().Power {
		t.Errorf("StandbyPower %v != background %v", p.StandbyPower, m.Background().Power)
	}
	if p.StandbyPower != m.BackgroundPower() {
		t.Errorf("BackgroundPower accessor mismatch")
	}
	if got := m.EvaluatePattern(m.PatternIDD0()).Current; p.IDD0 != got {
		t.Errorf("IDD0 %v != fresh evaluation %v", p.IDD0, got)
	}
	if got := m.EvaluatePattern(m.PatternIDD5()).Current; p.IDD5 != got {
		t.Errorf("IDD5 %v != fresh evaluation %v", p.IDD5, got)
	}
	for _, op := range desc.AllOps {
		if p.OpEnergy[op] != m.Charges(op).EnergyFromVdd(m.D.Electrical) {
			t.Errorf("OpEnergy[%v] differs from ledger", op)
		}
	}
}

// TestOverlaySetAndScale checks override and scaling semantics on each
// parameter family.
func TestOverlaySetAndScale(t *testing.T) {
	base, err := Build(desc.Sample1GbDDR3())
	if err != nil {
		t.Fatal(err)
	}
	bp := base.Params()

	m := mustBuildCalibrated(t, "Calibration measured\nidd0 = 58mA\nop.rd.energy *= 1.07\nstandby *= 0.9\n")
	if !m.Calibrated() {
		t.Fatal("model not calibrated")
	}
	if m.CalibrationName() != "measured" {
		t.Errorf("calibration name = %q", m.CalibrationName())
	}
	p := m.Params()
	if float64(p.IDD0) != 58e-3 {
		t.Errorf("IDD0 = %v, want 58mA", p.IDD0)
	}
	if want := units.Energy(float64(bp.OpEnergy[desc.OpRead]) * 1.07); p.OpEnergy[desc.OpRead] != want {
		t.Errorf("read energy = %v, want %v", p.OpEnergy[desc.OpRead], want)
	}
	if want := units.Power(float64(bp.StandbyPower) * 0.9); p.StandbyPower != want {
		t.Errorf("standby = %v, want %v", p.StandbyPower, want)
	}
	// The derived set is untouched.
	if m.DerivedParams() != bp {
		t.Error("calibration changed the derived parameter set")
	}
	// No back-propagation: pinning IDD0 does not move the activate energy.
	if p.OpEnergy[desc.OpActivate] != bp.OpEnergy[desc.OpActivate] {
		t.Error("IDD0 override back-propagated into activate energy")
	}
	if m.IDD().IDD0 != p.IDD0 {
		t.Error("IDD() does not report the calibrated IDD0")
	}
}

// TestOverlayCurrentAliases checks the current-valued views of the
// background powers: overrides convert through Vdd, scalings apply
// directly.
func TestOverlayCurrentAliases(t *testing.T) {
	base, err := Build(desc.Sample1GbDDR3())
	if err != nil {
		t.Fatal(err)
	}
	vdd := float64(base.D.Electrical.Vdd)

	m := mustBuildCalibrated(t, "idd2n = 40mA\nidd2p *= 1.5\nidd6 = 4.2mA\n")
	p := m.Params()
	if want := units.Power(40e-3 * vdd); p.StandbyPower != want {
		t.Errorf("idd2n=40mA: standby = %v, want %v", p.StandbyPower, want)
	}
	if want := units.Power(float64(base.Params().PowerDownPower) * 1.5); p.PowerDownPower != want {
		t.Errorf("idd2p*=1.5: powerdown = %v, want %v", p.PowerDownPower, want)
	}
	milli := 1e-3
	if want := units.Power(4.2 * milli * vdd); p.SelfRefreshPower != want {
		t.Errorf("idd6=4.2mA: selfrefresh = %v, want %v", p.SelfRefreshPower, want)
	}
	// The reported currents round-trip: IDD2N = StandbyPower / Vdd.
	if got := float64(m.IDD().IDD2N); got != 40e-3*vdd/vdd {
		t.Errorf("IDD2N = %v, want 40mA", got)
	}
	if got := float64(m.IDD2P()); got != float64(p.PowerDownPower)/vdd {
		t.Errorf("IDD2P = %v inconsistent with powerdown %v", got, p.PowerDownPower)
	}
}

// TestOverlayCeiling: a calibrated value above its class's ceiling, set
// or scaled, is an error naming the key and the value; the ceiling itself
// is accepted.
func TestOverlayCeiling(t *testing.T) {
	for _, tc := range []struct{ src, err string }{
		{"op.act.energy = 1e300\n", "core: calibration op.act.energy: 1e+300 J exceeds the 0.001 J ceiling"},
		{"op.act.energy = 1mJ\nop.act.energy *= 1.5\n", "core: calibration op.act.energy: 0.0015 J exceeds the 0.001 J ceiling"},
		{"idd0 = 1e307A\n", "core: calibration idd0: 1e+307 A exceeds the 1000 A ceiling"},
		{"idd7 = 10A\nidd7 *= 1e308\n", "core: calibration idd7: +Inf A exceeds the 1000 A ceiling"},
		{"standby = 2kW\n", "core: calibration standby: 2000 W exceeds the 1000 W ceiling"},
		{"idd2n = 1kA\n", "core: calibration idd2n: 1500 W exceeds the 1000 W ceiling"},
	} {
		ov, err := desc.ParseOverlayString(tc.src)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := BuildCalibrated(desc.Sample1GbDDR3(), ov); err == nil || err.Error() != tc.err {
			t.Errorf("%q: got %v, want %s", tc.src, err, tc.err)
		}
	}
	p := mustBuildCalibrated(t, "idd0 = 1kA\nstandby = 1kW\nop.act.energy = 1mJ\n").Params()
	if p.IDD0 != 1e3 || p.StandbyPower != 1e3 || p.OpEnergy[desc.OpActivate] != 1e-3 {
		t.Errorf("values at the ceiling not applied: %+v", p)
	}
}

// TestBreakdownInfiniteScale: a derived activate energy so small that
// the calibration ratio overflows to +Inf (a subnormal, which a user
// descriptor can derive) leaves the groups and domains activate items
// never touch at their uncalibrated values, bit for bit, instead of
// turning them into NaN through 0 × Inf.
func TestBreakdownInfiniteScale(t *testing.T) {
	base := build(t)
	m := mustBuildCalibrated(t, "op.act.energy = 1mJ\n")
	m.derived.OpEnergy[desc.OpActivate] = 5e-324
	if s := float64(m.params.OpEnergy[desc.OpActivate]) / float64(m.derived.OpEnergy[desc.OpActivate]); !math.IsInf(s, 1) {
		t.Fatalf("activate scale = %v, want +Inf", s)
	}
	groups := map[circuits.Group]bool{}
	domains := map[desc.Domain]bool{}
	for _, it := range base.Charges(desc.OpActivate).Items {
		groups[it.Group], domains[it.Domain] = true, true
	}
	same := func(a, b units.Power) bool {
		return math.Float64bits(float64(a)) == math.Float64bits(float64(b))
	}
	want, got := base.EvaluatePattern(base.PatternIDD7(0.5)), m.EvaluatePattern(m.PatternIDD7(0.5))
	n := 0
	for g, p := range want.ByGroup {
		if !groups[g] {
			n++
			if !same(got.ByGroup[g], p) {
				t.Errorf("group %v = %v, want %v", g, got.ByGroup[g], p)
			}
		}
	}
	for dom, p := range want.ByDomain {
		if !domains[dom] {
			n++
			if !same(got.ByDomain[dom], p) {
				t.Errorf("domain %v = %v, want %v", dom, got.ByDomain[dom], p)
			}
		}
	}
	if n == 0 {
		t.Fatal("activate touches every group and domain; the test checks nothing")
	}
}

// TestOverlaySequentialApplication checks entries apply in order, later
// entries seeing earlier results.
func TestOverlaySequentialApplication(t *testing.T) {
	m := mustBuildCalibrated(t, "idd0 = 50mA\nidd0 *= 2\n")
	if got := float64(m.Params().IDD0); got != 50e-3*2 {
		t.Errorf("IDD0 = %v, want 100mA", got)
	}
	m = mustBuildCalibrated(t, "op.act.energy = 2nJ\nop.act.energy *= 0.5\nop.act.energy *= 0.5\n")
	nano := 1e-9
	if got := float64(m.Params().OpEnergy[desc.OpActivate]); got != 2*nano*0.5*0.5 {
		t.Errorf("act energy = %v, want 0.5nJ", got)
	}
}

// TestCalibratedPatternEvaluation checks the seal stage: pattern totals
// follow the calibrated parameters and the breakdowns track them.
func TestCalibratedPatternEvaluation(t *testing.T) {
	base, err := Build(desc.Sample1GbDDR3())
	if err != nil {
		t.Fatal(err)
	}
	m := mustBuildCalibrated(t, "standby *= 0.8\nop.rd.energy *= 1.25\n")

	br := base.EvaluatePattern(base.PatternIDD4(false))
	cr := m.EvaluatePattern(m.PatternIDD4(false))
	if float64(cr.Background) != float64(br.Background)*0.8 {
		t.Errorf("background %v, want %v×0.8", cr.Background, br.Background)
	}
	if got, want := float64(cr.ByOp[desc.OpRead]), float64(br.ByOp[desc.OpRead])*1.25; got != want {
		t.Errorf("read op power %v, want %v", got, want)
	}
	if cr.Power <= br.Power*0.7 || cr.Power >= br.Power*1.3 {
		t.Errorf("calibrated power %v implausible vs base %v", cr.Power, br.Power)
	}
	// Breakdown closure: groups still sum to the total (within float
	// accumulation noise).
	var sum float64
	for _, p := range cr.ByGroup {
		sum += float64(p)
	}
	if tot := float64(cr.Power); sum < tot*0.999999 || sum > tot*1.000001 {
		t.Errorf("group breakdown sums to %v, total is %v", sum, tot)
	}
}
