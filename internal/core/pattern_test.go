package core_test

import (
	"math"
	"testing"

	"drampower/internal/circuits"
	"drampower/internal/core"
	"drampower/internal/desc"
	"drampower/internal/scaling"
	"drampower/internal/units"
)

// fuzzModels are the sample device uncalibrated and under an overlay
// whose absolute standby override and activate scaling move both
// breakdown scale ratios away from 1.
func fuzzModels(tb testing.TB) []*core.Model {
	tb.Helper()
	ov, err := desc.ParseOverlayString("standby = 60mW\nop.act.energy *= 1.3\n")
	if err != nil {
		tb.Fatal(err)
	}
	var out []*core.Model
	for _, o := range []*desc.Overlay{nil, ov} {
		m, err := core.BuildCalibrated(desc.Sample1GbDDR3(), o)
		if err != nil {
			tb.Fatal(err)
		}
		out = append(out, m)
	}
	return out
}

// fuzzLoop maps each byte to an op in [-3, NumOps+2], so loops carry
// invalid ops on both sides of the valid range.
func fuzzLoop(data []byte) desc.Pattern {
	loop := make([]desc.Op, len(data))
	for i, b := range data {
		loop[i] = desc.Op(int(b)%(desc.NumOps+6) - 3)
	}
	return desc.Pattern{Loop: loop}
}

// refTotals is the pattern-totals arithmetic written against the
// exported API: a map mix over every loop slot (invalid ops included,
// counted in the loop length and attributed nowhere), ops accumulated in
// canonical order, the same float operations in the same order.
func refTotals(m *core.Model, p desc.Pattern) core.PatternResult {
	mix := map[desc.Op]float64{}
	if n := len(p.Loop); n > 0 {
		inc := 1 / float64(n)
		for _, op := range p.Loop {
			mix[op] += inc
		}
	}
	params := m.Params()
	fctl := m.D.Spec.ControlClock
	res := core.PatternResult{Background: params.StandbyPower}
	for _, op := range desc.AllOps {
		share := mix[op]
		if op == desc.OpNop || share == 0 {
			continue
		}
		res.Command += units.Power(share) * units.Power(float64(params.OpEnergy[op])*float64(fctl))
	}
	res.Power = res.Background + res.Command
	if vdd := m.D.Electrical.Vdd; vdd > 0 {
		res.Current = units.Current(float64(res.Power) / float64(vdd))
	}
	for _, op := range p.Loop {
		if op == desc.OpRead || op == desc.OpWrite {
			res.BitsPerLoop += m.BitsPerBurst()
		}
	}
	if res.BitsPerLoop > 0 && fctl > 0 {
		loopTime := float64(len(p.Loop)) / float64(fctl)
		res.EnergyPerBit = units.Energy(float64(res.Power) * loopTime / float64(res.BitsPerLoop))
	}
	return res
}

func sameBits[T ~float64](a, b T) bool {
	return math.Float64bits(float64(a)) == math.Float64bits(float64(b))
}

// checkPattern asserts the totals/breakdown split on one pattern:
// PatternPower is EvaluatePattern's Power bit for bit, every scalar
// matches the reference arithmetic, the breakdown maps hold exactly the
// keys some item touched, and both splits sum to Power.
func checkPattern(t *testing.T, m *core.Model, p desc.Pattern) {
	t.Helper()
	res := m.EvaluatePattern(p)
	if pp := m.PatternPower(p); !sameBits(pp, res.Power) {
		t.Fatalf("PatternPower %v != EvaluatePattern Power %v (loop %v)", pp, res.Power, p.Loop)
	}
	ref := refTotals(m, p)
	if !sameBits(res.Background, ref.Background) || !sameBits(res.Command, ref.Command) ||
		!sameBits(res.Power, ref.Power) || !sameBits(res.Current, ref.Current) ||
		res.BitsPerLoop != ref.BitsPerLoop || !sameBits(res.EnergyPerBit, ref.EnergyPerBit) {
		t.Fatalf("scalars %+v, reference %+v (loop %v)", *res, ref, p.Loop)
	}
	// Key sets: ByOp holds the valid non-nop ops of the loop; ByGroup and
	// ByDomain the groups and domains their items or the background touch.
	groups, domains := map[circuits.Group]bool{}, map[desc.Domain]bool{}
	for _, it := range m.Background().Items {
		groups[it.Group] = true
		if it.Group == circuits.GroupStatic {
			domains[desc.DomainVdd] = true
		} else {
			domains[desc.DomainVint] = true
		}
	}
	for _, op := range desc.AllOps {
		in := false
		for _, o := range p.Loop {
			in = in || o == op
		}
		if _, ok := res.ByOp[op]; ok != (in && op != desc.OpNop) {
			t.Fatalf("ByOp[%v] present=%v, op in loop=%v (loop %v)", op, ok, in, p.Loop)
		}
		if in && op != desc.OpNop {
			for _, it := range m.Charges(op).Items {
				groups[it.Group], domains[it.Domain] = true, true
			}
		}
	}
	if len(res.ByGroup) != len(groups) || len(res.ByDomain) != len(domains) {
		t.Fatalf("ByGroup %v / ByDomain %v, want keys %v / %v (loop %v)", res.ByGroup, res.ByDomain, groups, domains, p.Loop)
	}
	for g := range groups {
		if _, ok := res.ByGroup[g]; !ok {
			t.Fatalf("ByGroup lacks %v (loop %v)", g, p.Loop)
		}
	}
	for d := range domains {
		if _, ok := res.ByDomain[d]; !ok {
			t.Fatalf("ByDomain lacks %v (loop %v)", d, p.Loop)
		}
	}
	var byGroup, byDomain float64
	for g := 0; g < circuits.NumGroups; g++ {
		byGroup += float64(res.ByGroup[circuits.Group(g)])
	}
	for d := 0; d < desc.NumDomains; d++ {
		byDomain += float64(res.ByDomain[desc.Domain(d)])
	}
	tol := 1e-12 * math.Abs(float64(res.Power))
	if math.Abs(byGroup-float64(res.Power)) > tol || math.Abs(byDomain-float64(res.Power)) > tol {
		t.Fatalf("breakdowns sum to %g (group) and %g (domain), Power %g (loop %v)",
			byGroup, byDomain, float64(res.Power), p.Loop)
	}
}

// FuzzEvaluatePattern checks the totals/breakdown split of pattern
// evaluation on arbitrary loops, invalid ops included:
//
//	go test ./internal/core -run '^$' -fuzz FuzzEvaluatePattern
func FuzzEvaluatePattern(f *testing.F) {
	models := fuzzModels(f)
	enc := func(ops ...desc.Op) []byte {
		b := make([]byte, len(ops))
		for i, op := range ops {
			b[i] = byte(int(op) + 3)
		}
		return b
	}
	f.Add([]byte{})
	f.Add(enc(desc.OpActivate, desc.OpNop, desc.OpWrite, desc.OpNop, desc.OpRead, desc.OpNop, desc.OpPrecharge, desc.OpNop))
	f.Add(enc(desc.OpNop, desc.OpNop))
	f.Add(enc(desc.OpRefresh, -3, desc.Op(desc.NumOps+2), desc.OpRead))
	f.Add(enc(-1, -2, desc.Op(desc.NumOps)))
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 512 {
			data = data[:512]
		}
		p := fuzzLoop(data)
		for _, m := range models {
			checkPattern(t, m, p)
		}
	})
}

// TestBreakdownSkipsUntouchedGroups calibrates the activate energy so
// high that its scale ratio overflows: the groups activate items never
// touch keep their uncalibrated values, bit for bit.
func TestBreakdownSkipsUntouchedGroups(t *testing.T) {
	ov, err := desc.ParseOverlayString("op.act.energy = 1e300\n")
	if err != nil {
		t.Fatal(err)
	}
	base, err := core.Build(desc.Sample1GbDDR3())
	if err != nil {
		t.Fatal(err)
	}
	huge, err := core.BuildCalibrated(desc.Sample1GbDDR3(), ov)
	if err != nil {
		t.Fatal(err)
	}
	touched := map[circuits.Group]bool{}
	for _, it := range base.Charges(desc.OpActivate).Items {
		touched[it.Group] = true
	}
	want, got := base.EvaluatePattern(base.PatternIDD7(0.5)), huge.EvaluatePattern(huge.PatternIDD7(0.5))
	n := 0
	for g, p := range want.ByGroup {
		if touched[g] {
			continue
		}
		n++
		if !sameBits(got.ByGroup[g], p) {
			t.Errorf("group %v = %v, want %v", g, got.ByGroup[g], p)
		}
	}
	if n == 0 {
		t.Fatal("every group is touched by activate; the test checks nothing")
	}
}

// TestIDDParamsArePatternCurrents pins the IDD loop currents derive
// stores to the Current EvaluatePattern reports for the same
// measurement loops, bit for bit, on the sample device and every
// roadmap node.
func TestIDDParamsArePatternCurrents(t *testing.T) {
	devs := []*desc.Description{desc.Sample1GbDDR3()}
	nodes, err := scaling.BuildAll()
	if err != nil {
		t.Fatal(err)
	}
	devs = append(devs, nodes...)
	for _, d := range devs {
		m, err := core.Build(d)
		if err != nil {
			t.Fatalf("%s: %v", d.Name, err)
		}
		p := m.Params()
		for _, c := range []struct {
			name string
			got  units.Current
			pat  desc.Pattern
		}{
			{"IDD0", p.IDD0, m.PatternIDD0()},
			{"IDD4R", p.IDD4R, m.PatternIDD4(false)},
			{"IDD4W", p.IDD4W, m.PatternIDD4(true)},
			{"IDD5", p.IDD5, m.PatternIDD5()},
			{"IDD7", p.IDD7, m.PatternIDD7(0)},
		} {
			if want := m.EvaluatePattern(c.pat).Current; !sameBits(c.got, want) {
				t.Errorf("%s %s = %v, EvaluatePattern reports %v", d.Name, c.name, c.got, want)
			}
		}
	}
}

func itemNames[T any](items []T, name func(T) string) map[string]bool {
	out := map[string]bool{}
	for _, it := range items {
		out[name(it)] = true
	}
	return out
}

// TestRecomputeReadsLiveLogicBlocks appends logic blocks to the
// description and renames existing ones after Build: RecomputeCharges
// and RecomputeBackground must report the current names and the new
// blocks, while the ledgers cached at Build keep the old ones.
func TestRecomputeReadsLiveLogicBlocks(t *testing.T) {
	d := desc.Sample1GbDDR3()
	m, err := core.Build(d)
	if err != nil {
		t.Fatal(err)
	}
	var active, alwaysOn int = -1, -1
	for i, b := range d.LogicBlocks {
		switch {
		case len(b.ActiveDuring) == 0 && alwaysOn < 0:
			alwaysOn = i
		case b.ActiveFor(desc.OpActivate) && len(b.ActiveDuring) > 0 && active < 0:
			active = i
		}
	}
	if active < 0 || alwaysOn < 0 {
		t.Fatal("sample needs an activate-only and an always-on logic block")
	}
	oldActive, oldAlwaysOn := d.LogicBlocks[active].Name, d.LogicBlocks[alwaysOn].Name
	extra := d.LogicBlocks[active]
	extra.Name = "appended-act"
	extraBg := d.LogicBlocks[alwaysOn]
	extraBg.Name = "appended-bg"
	d.LogicBlocks = append(d.LogicBlocks, extra, extraBg)
	d.LogicBlocks[active].Name = "renamed-act"
	d.LogicBlocks[alwaysOn].Name = "renamed-bg"

	chargeName := func(it circuits.ChargeItem) string { return it.Name }
	bgName := func(it core.BackgroundItem) string { return it.Name }
	charges := itemNames(m.RecomputeCharges(desc.OpActivate).Items, chargeName)
	bg := itemNames(m.RecomputeBackground().Items, bgName)
	for _, c := range []struct {
		set  map[string]bool
		name string
		want bool
	}{
		{charges, "logic appended-act", true},
		{charges, "logic renamed-act", true},
		{charges, "logic " + oldActive, false},
		{bg, "logic appended-bg", true},
		{bg, "logic renamed-bg", true},
		{bg, "logic " + oldAlwaysOn, false},
	} {
		if c.set[c.name] != c.want {
			t.Errorf("recomputed item %q present = %v, want %v", c.name, c.set[c.name], c.want)
		}
	}
	if !itemNames(m.Charges(desc.OpActivate).Items, chargeName)["logic "+oldActive] ||
		!itemNames(m.Background().Items, bgName)["logic "+oldAlwaysOn] {
		t.Error("the ledgers cached at Build changed with the description")
	}
}

// raceEnabled is set in race builds (race_test.go).
var raceEnabled bool

// TestBuildAllocs pins the allocation count of a model build; the IDD
// loops are placed by a pooled placer and evaluated from their op counts,
// so Build draws no loop and builds no breakdown maps, and the six ops'
// charge items share one slice and every item name one string. Under the
// race detector, which drops pooled placers at random, the bound is 15.
func TestBuildAllocs(t *testing.T) {
	bound := 10.0
	if raceEnabled {
		bound = 15
	}
	d := desc.Sample1GbDDR3()
	allocs := testing.AllocsPerRun(100, func() {
		if _, err := core.Build(d); err != nil {
			panic(err)
		}
	})
	if allocs > bound {
		t.Errorf("Build allocated %.0f times, want <= %.0f", allocs, bound)
	}
}

// TestPatternPowerZeroAllocs pins the totals-only evaluation the
// sensitivity sweep runs per variant as allocation-free.
func TestPatternPowerZeroAllocs(t *testing.T) {
	for _, m := range fuzzModels(t) {
		p := m.PatternIDD7(0.5)
		if allocs := testing.AllocsPerRun(100, func() { _ = m.PatternPower(p) }); allocs != 0 {
			t.Errorf("PatternPower allocated %.2f times per call, want 0", allocs)
		}
	}
}
