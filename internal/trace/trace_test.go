package trace

import (
	"errors"
	"math"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"testing/quick"

	"drampower/internal/core"
	"drampower/internal/desc"
	"drampower/internal/scaling"
	"drampower/internal/timing"
)

func model(t *testing.T) *core.Model {
	t.Helper()
	m, err := core.Build(desc.Sample1GbDDR3())
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestTimingSlotsResolution(t *testing.T) {
	m := model(t)
	tm := timing.For(m.D.Spec)
	tRC, tRCD, tRP, tRAS, tRRD, tFAW, burst := tm.RC, tm.RCD, tm.RP, tm.RAS, tm.RRD, tm.FAW, tm.Burst
	// 800 MHz control clock: tRC 48.75ns -> 39 slots, tRCD/tRP 13.75ns ->
	// 11, tRAS = 39-11 = 28, tRRD 7.5ns -> 6, tFAW 40ns -> 32, burst 4.
	for _, c := range []struct {
		name string
		got  int64
		want int64
	}{
		{"tRC", tRC, 39}, {"tRCD", tRCD, 11}, {"tRP", tRP, 11},
		{"tRAS", tRAS, 28}, {"tRRD", tRRD, 6}, {"tFAW", tFAW, 32},
		{"burst", burst, 4},
	} {
		if c.got != c.want {
			t.Errorf("%s: got %d slots, want %d", c.name, c.got, c.want)
		}
	}
}

func TestLegalActReadPrecharge(t *testing.T) {
	m := model(t)
	s := New(m)
	cmds := []Command{
		{Slot: 0, Op: desc.OpActivate, Bank: 0, Row: 42},
		{Slot: 11, Op: desc.OpRead, Bank: 0, Row: 42},
		{Slot: 28, Op: desc.OpPrecharge, Bank: 0, Row: 42},
		{Slot: 39, Op: desc.OpActivate, Bank: 0, Row: 7},
	}
	if err := s.Run(cmds); err != nil {
		t.Fatalf("legal trace rejected: %v", err)
	}
	res := s.Result(50)
	if res.Counts[desc.OpActivate] != 2 || res.Counts[desc.OpRead] != 1 {
		t.Errorf("counts: %v", res.Counts)
	}
	if res.Bits != int64(m.BitsPerBurst()) {
		t.Errorf("bits: got %d, want %d", res.Bits, m.BitsPerBurst())
	}
}

func expectViolation(t *testing.T, m *core.Model, cmds []Command, substr string) {
	t.Helper()
	s := New(m)
	err := s.Run(cmds)
	if err == nil {
		t.Fatalf("expected %q violation, trace accepted", substr)
	}
	var te *TimingError
	if !errors.As(err, &te) {
		t.Fatalf("error is %T, want *TimingError", err)
	}
	if !strings.Contains(err.Error(), substr) {
		t.Errorf("error %q does not mention %q", err, substr)
	}
}

func TestTimingViolations(t *testing.T) {
	m := model(t)
	t.Run("read before tRCD", func(t *testing.T) {
		expectViolation(t, m, []Command{
			{Slot: 0, Op: desc.OpActivate, Bank: 0, Row: 1},
			{Slot: 5, Op: desc.OpRead, Bank: 0, Row: 1},
		}, "tRCD")
	})
	t.Run("read on idle bank", func(t *testing.T) {
		expectViolation(t, m, []Command{
			{Slot: 0, Op: desc.OpRead, Bank: 0, Row: 1},
		}, "not active")
	})
	t.Run("read wrong row", func(t *testing.T) {
		expectViolation(t, m, []Command{
			{Slot: 0, Op: desc.OpActivate, Bank: 0, Row: 1},
			{Slot: 20, Op: desc.OpRead, Bank: 0, Row: 2},
		}, "row")
	})
	t.Run("double activate", func(t *testing.T) {
		expectViolation(t, m, []Command{
			{Slot: 0, Op: desc.OpActivate, Bank: 0, Row: 1},
			{Slot: 20, Op: desc.OpActivate, Bank: 0, Row: 2},
		}, "already active")
	})
	t.Run("precharge before tRAS", func(t *testing.T) {
		expectViolation(t, m, []Command{
			{Slot: 0, Op: desc.OpActivate, Bank: 0, Row: 1},
			{Slot: 12, Op: desc.OpPrecharge, Bank: 0, Row: 1},
		}, "tRAS")
	})
	t.Run("activate before tRP", func(t *testing.T) {
		expectViolation(t, m, []Command{
			{Slot: 0, Op: desc.OpActivate, Bank: 0, Row: 1},
			{Slot: 30, Op: desc.OpPrecharge, Bank: 0, Row: 1},
			{Slot: 40, Op: desc.OpActivate, Bank: 0, Row: 2}, // tRC ok, tRP 10 < 11
		}, "tRP")
	})
	t.Run("tRRD across banks", func(t *testing.T) {
		expectViolation(t, m, []Command{
			{Slot: 0, Op: desc.OpActivate, Bank: 0, Row: 1},
			{Slot: 2, Op: desc.OpActivate, Bank: 1, Row: 1},
		}, "tRRD")
	})
	t.Run("tFAW fifth activate", func(t *testing.T) {
		expectViolation(t, m, []Command{
			{Slot: 0, Op: desc.OpActivate, Bank: 0, Row: 1},
			{Slot: 6, Op: desc.OpActivate, Bank: 1, Row: 1},
			{Slot: 12, Op: desc.OpActivate, Bank: 2, Row: 1},
			{Slot: 18, Op: desc.OpActivate, Bank: 3, Row: 1},
			{Slot: 24, Op: desc.OpActivate, Bank: 4, Row: 1},
		}, "tFAW")
	})
	t.Run("bus conflict", func(t *testing.T) {
		expectViolation(t, m, []Command{
			{Slot: 0, Op: desc.OpActivate, Bank: 0, Row: 1},
			{Slot: 6, Op: desc.OpActivate, Bank: 1, Row: 1},
			{Slot: 17, Op: desc.OpRead, Bank: 0, Row: 1},
			{Slot: 19, Op: desc.OpRead, Bank: 1, Row: 1}, // bus held until 21
		}, "bus busy")
	})
	t.Run("refresh with open bank", func(t *testing.T) {
		expectViolation(t, m, []Command{
			{Slot: 0, Op: desc.OpActivate, Bank: 0, Row: 1},
			{Slot: 20, Op: desc.OpRefresh},
		}, "active at refresh")
	})
	t.Run("out of order", func(t *testing.T) {
		expectViolation(t, m, []Command{
			{Slot: 10, Op: desc.OpNop},
			{Slot: 5, Op: desc.OpNop},
		}, "out of order")
	})
	t.Run("bad bank", func(t *testing.T) {
		expectViolation(t, m, []Command{
			{Slot: 0, Op: desc.OpActivate, Bank: 99, Row: 1},
		}, "bank 99")
	})
}

func TestRejectedCommandLeavesStateUnchanged(t *testing.T) {
	m := model(t)
	s := New(m)
	if err := s.Issue(Command{Slot: 0, Op: desc.OpActivate, Bank: 0, Row: 1}); err != nil {
		t.Fatal(err)
	}
	// Illegal read (tRCD) must not consume bus or energy.
	before := s.Result(100)
	if err := s.Issue(Command{Slot: 3, Op: desc.OpRead, Bank: 0, Row: 1}); err == nil {
		t.Fatal("expected violation")
	}
	after := s.Result(100)
	if before.CommandEnergy != after.CommandEnergy || before.Bits != after.Bits {
		t.Error("rejected command changed accounting")
	}
	// The legal read at tRCD still works.
	if err := s.Issue(Command{Slot: 11, Op: desc.OpRead, Bank: 0, Row: 1}); err != nil {
		t.Errorf("legal read after rejection failed: %v", err)
	}
}

func TestEnergyAccountingMatchesEngine(t *testing.T) {
	m := model(t)
	s := New(m)
	cmds := []Command{
		{Slot: 0, Op: desc.OpActivate, Bank: 0, Row: 1},
		{Slot: 11, Op: desc.OpRead, Bank: 0, Row: 1},
		{Slot: 28, Op: desc.OpPrecharge, Bank: 0, Row: 1},
	}
	if err := s.Run(cmds); err != nil {
		t.Fatal(err)
	}
	res := s.Result(39)
	el := m.D.Electrical
	want := float64(m.Charges(desc.OpActivate).EnergyFromVdd(el)) +
		float64(m.Charges(desc.OpRead).EnergyFromVdd(el)) +
		float64(m.Charges(desc.OpPrecharge).EnergyFromVdd(el))
	if math.Abs(float64(res.CommandEnergy)-want) > 1e-9*want {
		t.Errorf("command energy: got %v, want %g", res.CommandEnergy, want)
	}
	// Background = bg power x duration.
	dur := 39.0 / float64(m.D.Spec.ControlClock)
	wantBg := float64(m.Background().Power) * dur
	if math.Abs(float64(res.Background)-wantBg) > 1e-9*wantBg {
		t.Errorf("background energy: got %v, want %g", res.Background, wantBg)
	}
	if math.Abs(float64(res.Total)-(want+wantBg)) > 1e-9*(want+wantBg) {
		t.Errorf("total energy mismatch")
	}
}

func TestStreamingWorkload(t *testing.T) {
	m := model(t)
	cmds := Streaming(m, 200, 0.7, 1)
	res, err := Evaluate(m, cmds)
	if err != nil {
		t.Fatalf("streaming trace illegal: %v", err)
	}
	if res.Counts[desc.OpRead]+res.Counts[desc.OpWrite] != 200 {
		t.Errorf("bursts: got %d", res.Counts[desc.OpRead]+res.Counts[desc.OpWrite])
	}
	// Streaming keeps the bus nearly saturated.
	if res.BusUtilization < 0.85 {
		t.Errorf("streaming bus utilization %.2f, want near 1", res.BusUtilization)
	}
	if res.EnergyPerBit <= 0 {
		t.Error("no energy per bit")
	}
}

func TestRandomClosedPageWorkload(t *testing.T) {
	m := model(t)
	cmds := RandomClosedPage(m, 120, 0.5, 7)
	res, err := Evaluate(m, cmds)
	if err != nil {
		t.Fatalf("closed-page trace illegal: %v", err)
	}
	if res.Counts[desc.OpActivate] != 120 || res.Counts[desc.OpPrecharge] != 120 {
		t.Errorf("act/pre counts: %v", res.Counts)
	}
	// Random closed-page costs more energy per bit than streaming.
	st, err := Evaluate(m, Streaming(m, 360, 0.5, 7))
	if err != nil {
		t.Fatal(err)
	}
	if float64(res.EnergyPerBit) <= float64(st.EnergyPerBit) {
		t.Errorf("closed-page e/bit (%v) should exceed streaming (%v)",
			res.EnergyPerBit, st.EnergyPerBit)
	}
}

func TestRefreshOnlyWorkload(t *testing.T) {
	m := model(t)
	cmds := RefreshOnly(m, 8)
	res, err := Evaluate(m, cmds)
	if err != nil {
		t.Fatalf("refresh trace illegal: %v", err)
	}
	if res.Counts[desc.OpRefresh] != 8 {
		t.Errorf("refreshes: got %d", res.Counts[desc.OpRefresh])
	}
	if res.Bits != 0 || res.EnergyPerBit != 0 {
		t.Error("refresh-only trace moved data")
	}
	// Standby-with-refresh power is slightly above the pure background.
	bg := float64(m.Background().Power)
	if p := float64(res.AveragePower); p <= bg || p > bg*1.3 {
		t.Errorf("refresh standby power %g vs background %g out of band", p, bg)
	}
}

// Property: trace energy is additive — two traces concatenated (with the
// second shifted beyond all constraints) cost the sum of their command
// energies.
func TestPropTraceEnergyAdditive(t *testing.T) {
	m := model(t)
	f := func(n1Raw, n2Raw uint8) bool {
		n1 := int(n1Raw%20) + 1
		n2 := int(n2Raw%20) + 1
		c1 := RandomClosedPage(m, n1, 0.5, 3)
		c2 := RandomClosedPage(m, n2, 0.5, 4)
		r1, err1 := Evaluate(m, c1)
		r2, err2 := Evaluate(m, c2)
		if err1 != nil || err2 != nil {
			return false
		}
		// Concatenate with a large shift.
		shift := r1.Slots + 1000
		var joined []Command
		joined = append(joined, c1...)
		for _, c := range c2 {
			c.Slot += shift
			joined = append(joined, c)
		}
		rj, err := Evaluate(m, joined)
		if err != nil {
			return false
		}
		sum := float64(r1.CommandEnergy) + float64(r2.CommandEnergy)
		return math.Abs(float64(rj.CommandEnergy)-sum) < 1e-9*sum
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

// Cross-validation: the trace simulator's random closed-page workload and
// the power engine's IDD7 pattern describe the same traffic class, so
// their average currents must agree within a modest margin.
func TestClosedPageTraceMatchesIDD7Pattern(t *testing.T) {
	m := model(t)
	res, err := Evaluate(m, RandomClosedPage(m, 400, 0.5, 11))
	if err != nil {
		t.Fatal(err)
	}
	pat := m.EvaluatePattern(m.PatternIDD7(0.5))
	traceMA := res.AverageCurrent.Milliamps()
	patMA := pat.Current.Milliamps()
	// The pattern fills the bus with BurstsPerActivation bursts per
	// activate while the closed-page trace issues one; scale the pattern's
	// column share out by comparing against a one-burst pattern bound
	// instead: the trace must land between the IDD0-style floor and the
	// IDD7 ceiling.
	idd := m.IDD()
	lo := idd.IDD0.Milliamps()
	hi := patMA * 1.05
	if traceMA < lo*0.9 || traceMA > hi {
		t.Errorf("closed-page trace current %.1f mA outside [%.1f, %.1f]",
			traceMA, lo*0.9, hi)
	}
	_ = traceMA
}

// iddLoops are the six measurement loops the cross-layer checks replay:
// each places its loop through core's Put and draws it as a pattern.
var iddLoops = []struct {
	name    string
	place   func(m *core.Model, put core.Put) int64
	pattern func(m *core.Model) desc.Pattern
	opens   bool // an activate of bank 0 at slot 0 opens the loop's row
}{
	{"IDD0", (*core.Model).PlaceIDD0, (*core.Model).PatternIDD0, false},
	{"IDD4R", func(m *core.Model, put core.Put) int64 { return m.PlaceIDD4(false, put) },
		func(m *core.Model) desc.Pattern { return m.PatternIDD4(false) }, true},
	{"IDD4W", func(m *core.Model, put core.Put) int64 { return m.PlaceIDD4(true, put) },
		func(m *core.Model) desc.Pattern { return m.PatternIDD4(true) }, true},
	{"IDD5", (*core.Model).PlaceIDD5, (*core.Model).PatternIDD5, false},
	{"IDD7(0)", func(m *core.Model, put core.Put) int64 { return m.PlaceIDD7(0, put) },
		func(m *core.Model) desc.Pattern { return m.PatternIDD7(0) }, false},
	{"IDD7(0.5)", func(m *core.Model, put core.Put) int64 { return m.PlaceIDD7(0.5, put) },
		func(m *core.Model) desc.Pattern { return m.PatternIDD7(0.5) }, false},
}

// checkIDDLoops replays periods periods of every measurement loop of m
// on a Simulator. Each must replay clean, and its command energy, less
// IDD4's opening activate, must be periods times the command energy
// EvaluatePattern reports for one period of the drawn loop, within the
// relative tolerance tol gives for the number of commands replayed.
func checkIDDLoops(t *testing.T, m *core.Model, periods int, tol func(cmds int) float64) {
	t.Helper()
	for _, l := range iddLoops {
		var loop []Command
		period := l.place(m, func(slot int64, op desc.Op, bank int) {
			loop = append(loop, Command{Slot: slot, Op: op, Bank: bank})
		})
		var cmds []Command
		if l.opens {
			cmds = append(cmds, Command{Op: desc.OpActivate})
		}
		for k := range int64(periods) {
			for _, c := range loop {
				c.Slot += k * period
				cmds = append(cmds, c)
			}
		}
		slices.SortStableFunc(cmds, func(a, b Command) int { return int(a.Slot - b.Slot) })
		s := New(m)
		if err := s.Run(cmds); err != nil {
			t.Fatalf("%s: %s loop (period %d) rejected: %v", m.D.Name, l.name, period, err)
		}
		got := float64(s.Result(s.Now()).CommandEnergy)
		if l.opens {
			got -= float64(m.OpEnergy(desc.OpActivate))
		}
		p := l.pattern(m)
		if int64(len(p.Loop)) != period {
			t.Fatalf("%s: %s pattern has %d slots, placed period %d", m.D.Name, l.name, len(p.Loop), period)
		}
		want := float64(periods) * float64(m.EvaluatePattern(p).Command) *
			float64(period) / float64(m.D.Spec.ControlClock)
		if math.Abs(got-want) > tol(len(cmds))*math.Abs(want) {
			t.Errorf("%s: %s: %d periods replay %.17g J of command energy, the pattern evaluation %.17g J",
				m.D.Name, l.name, periods, got, want)
		}
	}
}

// TestIDDLoopsReplayClean checks that the paper's measurement loops are
// legal traces on every shipped device (the sample, the testdata
// descriptions and the scaling roadmap nodes): 50 periods of each replay
// clean and cost exactly what the pattern evaluation reports.
func TestIDDLoopsReplayClean(t *testing.T) {
	ds := []*desc.Description{desc.Sample1GbDDR3()}
	files, err := filepath.Glob("../../testdata/*.dram")
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range files {
		d, err := desc.ParseFile(f)
		if err != nil {
			t.Fatal(err)
		}
		ds = append(ds, d)
	}
	nodes, err := scaling.BuildAll()
	if err != nil {
		t.Fatal(err)
	}
	if ds = append(ds, nodes...); len(ds) != 19 {
		t.Fatalf("%d shipped devices, want 19", len(ds))
	}
	for _, d := range ds {
		m, err := core.Build(d)
		if err != nil {
			t.Fatal(err)
		}
		checkIDDLoops(t, m, 50, func(int) float64 { return 1e-12 })
	}
}

// The Issue accept path is provably allocation-free: per-op counters and
// energies are fixed arrays and the activate history is a ring buffer.
func TestIssueZeroAllocs(t *testing.T) {
	ov, err := desc.ParseOverlayString("standby *= 0.9\nop.rd.energy *= 1.07\nidd6 = 4mA\n")
	if err != nil {
		t.Fatal(err)
	}
	calibrated, err := core.BuildCalibrated(desc.Sample1GbDDR3(), ov)
	if err != nil {
		t.Fatal(err)
	}
	// The hot path must stay allocation-free for calibrated models too:
	// the overlay resolves at Build time, never on Issue.
	for _, tc := range []struct {
		name string
		m    *core.Model
	}{
		{"derived", model(t)},
		{"calibrated", calibrated},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cmds := RandomClosedPage(tc.m, 400, 0.5, 2) // 1200 commands
			s := New(tc.m)
			i := 0
			allocs := testing.AllocsPerRun(1100, func() {
				if err := s.Issue(cmds[i]); err != nil {
					panic(err)
				}
				i++
			})
			if allocs != 0 {
				t.Errorf("Issue allocated %.2f times per command, want 0", allocs)
			}
		})
	}
}

// TestCalibratedTraceEnergy checks the seal stage reaches the trace
// simulator: a standby scaling moves the background residency energy and
// a read-energy scaling moves the command energy.
func TestCalibratedTraceEnergy(t *testing.T) {
	base := model(t)
	ov, err := desc.ParseOverlayString("standby *= 0.5\n")
	if err != nil {
		t.Fatal(err)
	}
	m, err := core.BuildCalibrated(desc.Sample1GbDDR3(), ov)
	if err != nil {
		t.Fatal(err)
	}
	cmds := RandomClosedPage(base, 100, 0.5, 7)
	br, err := Evaluate(base, cmds)
	if err != nil {
		t.Fatal(err)
	}
	cr, err := Evaluate(m, cmds)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := float64(cr.Background), float64(br.Background)*0.5; math.Abs(got-want) > want*1e-12 {
		t.Errorf("calibrated background energy %v, want %v", got, want)
	}
	if cr.CommandEnergy != br.CommandEnergy {
		t.Errorf("standby calibration moved command energy: %v vs %v", cr.CommandEnergy, br.CommandEnergy)
	}
}

// tRRD binds against the most recent activate only (activates arrive in
// slot order, so older history entries can never be the tighter bound).
func TestTRRDMostRecentActivate(t *testing.T) {
	m := model(t)
	// tRRD = 6 on the sample device.
	prologue := []Command{
		{Slot: 0, Op: desc.OpActivate, Bank: 0, Row: 1},
		{Slot: 8, Op: desc.OpActivate, Bank: 1, Row: 1},
	}
	t.Run("violation names the most recent activate", func(t *testing.T) {
		s := New(m)
		if err := s.Run(prologue); err != nil {
			t.Fatal(err)
		}
		err := s.Issue(Command{Slot: 13, Op: desc.OpActivate, Bank: 2, Row: 1})
		if err == nil {
			t.Fatal("activate 5 slots after the last one accepted, want tRRD violation")
		}
		if !strings.Contains(err.Error(), "tRRD: activate at 8") {
			t.Errorf("error %q should blame the most recent activate (slot 8)", err)
		}
	})
	t.Run("exactly tRRD after the most recent is legal", func(t *testing.T) {
		s := New(m)
		if err := s.Run(prologue); err != nil {
			t.Fatal(err)
		}
		if err := s.Issue(Command{Slot: 14, Op: desc.OpActivate, Bank: 2, Row: 1}); err != nil {
			t.Errorf("activate exactly tRRD after the last rejected: %v", err)
		}
	})
}

// The activate ring buffer survives wrap-around: the 9th+ activates must
// still see the correct 4th-most-recent entry for tFAW.
func TestActivateRingWrap(t *testing.T) {
	m := model(t)
	// Eight activates at slots 0,8,...,56 (every tFAW boundary is exact),
	// precharges squeezed in so banks 0 and 1 can re-activate.
	prologue := []Command{
		{Slot: 0, Op: desc.OpActivate, Bank: 0, Row: 1},
		{Slot: 8, Op: desc.OpActivate, Bank: 1, Row: 1},
		{Slot: 16, Op: desc.OpActivate, Bank: 2, Row: 1},
		{Slot: 24, Op: desc.OpActivate, Bank: 3, Row: 1},
		{Slot: 28, Op: desc.OpPrecharge, Bank: 0, Row: 1},
		{Slot: 32, Op: desc.OpActivate, Bank: 4, Row: 1},
		{Slot: 40, Op: desc.OpActivate, Bank: 5, Row: 1},
		{Slot: 41, Op: desc.OpPrecharge, Bank: 1, Row: 1},
		{Slot: 48, Op: desc.OpActivate, Bank: 6, Row: 1},
		{Slot: 56, Op: desc.OpActivate, Bank: 7, Row: 1},
	}
	t.Run("ninth activate at the exact tFAW boundary", func(t *testing.T) {
		s := New(m)
		if err := s.Run(prologue); err != nil {
			t.Fatal(err)
		}
		// 4th-most-recent activate is slot 32; 32 + tFAW(32) = 64.
		if err := s.Issue(Command{Slot: 64, Op: desc.OpActivate, Bank: 0, Row: 2}); err != nil {
			t.Errorf("ninth activate at exact tFAW boundary rejected: %v", err)
		}
	})
	t.Run("ninth activate one slot early", func(t *testing.T) {
		s := New(m)
		if err := s.Run(prologue); err != nil {
			t.Fatal(err)
		}
		err := s.Issue(Command{Slot: 63, Op: desc.OpActivate, Bank: 0, Row: 2})
		if err == nil || !strings.Contains(err.Error(), "tFAW") {
			t.Errorf("ninth activate inside the tFAW window: got %v, want tFAW violation", err)
		}
	})
}

// Pin the intended per-op semantics at a slot where the data bus is still
// carrying a burst: only column commands contend for the data bus;
// activate, precharge, refresh and nop ride the command bus and issue
// normally.
func TestIssueAtContendedBusSlot(t *testing.T) {
	m := model(t)
	// Prologue A: read on bank 0 at slot 25 holds the bus over [25, 29).
	twoBanks := []Command{
		{Slot: 0, Op: desc.OpActivate, Bank: 0, Row: 1},
		{Slot: 8, Op: desc.OpActivate, Bank: 1, Row: 1},
		{Slot: 25, Op: desc.OpRead, Bank: 0, Row: 1},
	}
	// Prologue B: the burst lives on bank 1 (read at 26, bus over
	// [26, 30)) so a bank-0 precharge can land inside the burst window
	// without cutting off its own data.
	otherBank := []Command{
		{Slot: 0, Op: desc.OpActivate, Bank: 0, Row: 1},
		{Slot: 6, Op: desc.OpActivate, Bank: 1, Row: 1},
		{Slot: 26, Op: desc.OpRead, Bank: 1, Row: 1},
	}
	cases := []struct {
		name     string
		prologue []Command
		cmd      Command
		allowed  bool
		substr   string
	}{
		{"read rejected", twoBanks, Command{Slot: 26, Op: desc.OpRead, Bank: 1, Row: 1}, false, "bus busy"},
		{"write rejected", twoBanks, Command{Slot: 26, Op: desc.OpWrite, Bank: 1, Row: 1}, false, "bus busy"},
		{"nop allowed", twoBanks, Command{Slot: 26, Op: desc.OpNop}, true, ""},
		{"activate allowed", twoBanks, Command{Slot: 26, Op: desc.OpActivate, Bank: 2, Row: 1}, true, ""},
		{"precharge of other bank allowed", otherBank, Command{Slot: 28, Op: desc.OpPrecharge, Bank: 0, Row: 1}, true, ""},
		{"precharge of burst owner rejected", twoBanks, Command{Slot: 28, Op: desc.OpPrecharge, Bank: 0, Row: 1}, false, "drains"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			s := New(m)
			if err := s.Run(c.prologue); err != nil {
				t.Fatal(err)
			}
			err := s.Issue(c.cmd)
			if c.allowed && err != nil {
				t.Errorf("%v at contended slot rejected: %v", c.cmd, err)
			}
			if !c.allowed {
				if err == nil {
					t.Fatalf("%v at contended slot accepted, want rejection", c.cmd)
				}
				if !strings.Contains(err.Error(), c.substr) {
					t.Errorf("error %q should contain %q", err, c.substr)
				}
			}
		})
	}
}

// Boundary conditions: every timing window is exclusive of its end slot —
// a command exactly at the boundary is legal, one slot earlier is not.
func TestTimingBoundaries(t *testing.T) {
	m := model(t)
	t.Run("tFAW fifth activate exactly at the window edge", func(t *testing.T) {
		s := New(m)
		for b, slot := range []int64{0, 8, 16, 24} {
			if err := s.Issue(Command{Slot: slot, Op: desc.OpActivate, Bank: b, Row: 1}); err != nil {
				t.Fatal(err)
			}
		}
		// First-of-four at 0, tFAW 32: slot 32 is the first legal slot.
		if err := s.Issue(Command{Slot: 32, Op: desc.OpActivate, Bank: 4, Row: 1}); err != nil {
			t.Errorf("fifth activate at exact tFAW edge rejected: %v", err)
		}
	})
	t.Run("activate exactly at refUntil", func(t *testing.T) {
		s := New(m)
		if err := s.Issue(Command{Slot: 0, Op: desc.OpRefresh}); err != nil {
			t.Fatal(err)
		}
		tRFC := timing.For(m.D.Spec).RFC
		if err := s.Issue(Command{Slot: tRFC - 1, Op: desc.OpActivate, Bank: 0, Row: 1}); err == nil {
			t.Error("activate one slot inside tRFC accepted")
		}
		if err := s.Issue(Command{Slot: tRFC, Op: desc.OpActivate, Bank: 0, Row: 1}); err != nil {
			t.Errorf("activate exactly at refresh completion rejected: %v", err)
		}
	})
	t.Run("precharge exactly at actSlot+tRAS", func(t *testing.T) {
		s := New(m)
		if err := s.Issue(Command{Slot: 0, Op: desc.OpActivate, Bank: 0, Row: 1}); err != nil {
			t.Fatal(err)
		}
		if err := s.Issue(Command{Slot: 28, Op: desc.OpPrecharge, Bank: 0, Row: 1}); err != nil {
			t.Errorf("precharge at exact tRAS rejected: %v", err)
		}
	})
	t.Run("same-slot commands to different banks", func(t *testing.T) {
		s := New(m)
		cmds := []Command{
			{Slot: 0, Op: desc.OpActivate, Bank: 0, Row: 1},
			{Slot: 11, Op: desc.OpRead, Bank: 0, Row: 1},
			{Slot: 11, Op: desc.OpActivate, Bank: 1, Row: 3}, // same slot, other bank
		}
		if err := s.Run(cmds); err != nil {
			t.Errorf("same-slot commands to different banks rejected: %v", err)
		}
		res := s.Result(50)
		if res.Counts[desc.OpActivate] != 2 || res.Counts[desc.OpRead] != 1 {
			t.Errorf("counts after same-slot issue: %v", res.Counts)
		}
	})
}

// A trace that issued nothing reports a nil Counts map (no allocation,
// and nil-map reads still return zero for every op).
func TestResultEmptyTraceCounts(t *testing.T) {
	m := model(t)
	s := New(m)
	res := s.Result(100)
	if res.Counts != nil {
		t.Errorf("empty trace materialized a counts map: %v", res.Counts)
	}
	if res.Counts[desc.OpActivate] != 0 {
		t.Error("nil counts map read nonzero")
	}
	if res.CommandEnergy != 0 || res.Bits != 0 || res.BusUtilization != 0 {
		t.Errorf("empty trace accounted activity: %+v", res)
	}
	if res.Background <= 0 {
		t.Error("empty trace over 100 slots should still accumulate background energy")
	}
}

// BusUtilization stays in [0, 1] even when endSlot truncates the final
// burst's occupancy window.
func TestBusUtilizationClamped(t *testing.T) {
	d := desc.Sample1GbDDR3()
	d.Spec.RowToColumnDelay = 0 // tRCD resolves to the 1-slot floor
	m, err := core.Build(d)
	if err != nil {
		t.Fatal(err)
	}
	s := New(m)
	if err := s.Issue(Command{Slot: 0, Op: desc.OpActivate, Bank: 0, Row: 1}); err != nil {
		t.Fatal(err)
	}
	if err := s.Issue(Command{Slot: 1, Op: desc.OpRead, Bank: 0, Row: 1}); err != nil {
		t.Fatal(err)
	}
	// The 4-slot burst runs [1, 5) but the accounting ends at slot 1: the
	// raw ratio would be 4/1 = 4.
	res := s.Result(1)
	if res.BusUtilization != 1 {
		t.Errorf("truncated burst: utilization %v, want clamped to 1", res.BusUtilization)
	}
	// And a full accounting window reports the true sub-1 share.
	res = s.Result(8)
	if res.BusUtilization != 0.5 {
		t.Errorf("full window: utilization %v, want 0.5", res.BusUtilization)
	}
}
