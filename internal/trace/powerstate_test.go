package trace

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"drampower/internal/desc"
	"drampower/internal/timing"
	"drampower/internal/units"
)

// legacyResult mirrors the Result shape before the power-state machine
// landed: same fields, same order, same types. Marshalling a projection of
// today's Result through it must reproduce the pre-change JSON byte for
// byte (the goldens under testdata were generated by the flat-background
// engine), proving plain traces are accounted bit-identically.
type legacyResult struct {
	Slots          int64
	Duration       units.Duration
	CommandEnergy  units.Energy
	Background     units.Energy
	Total          units.Energy
	AveragePower   units.Power
	AverageCurrent units.Current
	Bits           int64
	EnergyPerBit   units.Energy
	Counts         map[desc.Op]int64
	BusUtilization float64
}

func legacyProjection(r Result) legacyResult {
	return legacyResult{
		Slots:          r.Slots,
		Duration:       r.Duration,
		CommandEnergy:  r.CommandEnergy,
		Background:     r.Background,
		Total:          r.Total,
		AveragePower:   r.AveragePower,
		AverageCurrent: r.AverageCurrent,
		Bits:           r.Bits,
		EnergyPerBit:   r.EnergyPerBit,
		Counts:         r.Counts,
		BusUtilization: r.BusUtilization,
	}
}

// TestGoldenResultUnchanged pins the bugfix's compatibility contract: a
// trace containing no power-state commands must produce exactly the
// result the flat-background engine produced — not approximately, but to
// the last bit of every float. The golden traces and results under
// testdata were generated by the pre-power-state engine.
func TestGoldenResultUnchanged(t *testing.T) {
	m := model(t)
	cases := []struct {
		name, traceFile, resultFile string
		channels, workers           int
	}{
		{"single channel", "golden_single_trace.txt", "golden_single_result.json", 1, 1},
		{"two channels", "golden_multi_trace.txt", "golden_multi_result.json", 2, 2},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			src, err := os.ReadFile(filepath.Join("testdata", c.traceFile))
			if err != nil {
				t.Fatal(err)
			}
			want, err := os.ReadFile(filepath.Join("testdata", c.resultFile))
			if err != nil {
				t.Fatal(err)
			}
			res, err := Replay(m, bytes.NewReader(src), ReplayOptions{Channels: c.channels, Workers: c.workers})
			if err != nil {
				t.Fatal(err)
			}
			got, err := json.Marshal(legacyProjection(res))
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(bytes.TrimSpace(got), bytes.TrimSpace(want)) {
				t.Errorf("plain-trace result drifted from the pre-power-state engine:\n got:  %s\n want: %s",
					bytes.TrimSpace(got), bytes.TrimSpace(want))
			}
			// The new residency fields must be consistent too: all slots in
			// the standby states, none in the low-power states.
			if res.PowerDownSlots != 0 || res.SelfRefreshSlots != 0 {
				t.Errorf("plain trace reports low-power residency: pd=%d sr=%d",
					res.PowerDownSlots, res.SelfRefreshSlots)
			}
			if sum := res.ActiveSlots + res.PrechargedSlots; sum != int64(c.channels)*res.Slots {
				t.Errorf("standby residency %d, want channels x slots = %d", sum, int64(c.channels)*res.Slots)
			}
		})
	}
}

func TestPowerStateTimingDerivation(t *testing.T) {
	m := model(t)
	tm := timing.For(m.D.Spec)
	tCKE, tXP, tXS := tm.CKE, tm.XP, tm.XS
	// Sample device: tRP 11, tRCD 11, so tCKE = 11/2 = 5, tXP = 12/2 = 6,
	// tXS = tRFC + 11.
	if tCKE != 5 {
		t.Errorf("tCKEmin: got %d slots, want 5", tCKE)
	}
	if tXP != 6 {
		t.Errorf("tXP: got %d slots, want 6", tXP)
	}
	if want := tm.RFC + 11; tXS != want {
		t.Errorf("tXS: got %d slots, want tRFC+tRP = %d", tXS, want)
	}
}

func TestPowerStateMachine(t *testing.T) {
	m := model(t)
	// Sample device: tCKE 5, tXP 6.
	t.Run("enter with open bank", func(t *testing.T) {
		expectViolation(t, m, []Command{
			{Slot: 0, Op: desc.OpActivate, Bank: 0, Row: 1},
			{Slot: 5, Op: OpPowerDownEnter},
		}, "bank(s) open")
	})
	t.Run("enter during refresh", func(t *testing.T) {
		expectViolation(t, m, []Command{
			{Slot: 0, Op: desc.OpRefresh},
			{Slot: 5, Op: OpPowerDownEnter},
		}, "tRFC")
	})
	t.Run("enter during burst", func(t *testing.T) {
		// Read at 27 holds the bus over [27, 31): the precharge at 28 would
		// cut its own bank's burst short, so the trace dies there — the bank
		// can never be closed (and the device never parked) mid-burst.
		expectViolation(t, m, []Command{
			{Slot: 0, Op: desc.OpActivate, Bank: 0, Row: 1},
			{Slot: 27, Op: desc.OpRead, Bank: 0, Row: 1},
			{Slot: 28, Op: desc.OpPrecharge, Bank: 0, Row: 1},
			{Slot: 29, Op: OpPowerDownEnter},
		}, "drains")
	})
	t.Run("double entry", func(t *testing.T) {
		expectViolation(t, m, []Command{
			{Slot: 0, Op: OpPowerDownEnter},
			{Slot: 2, Op: OpSelfRefreshEnter},
		}, "already in power_down")
	})
	t.Run("exit before tCKEmin", func(t *testing.T) {
		expectViolation(t, m, []Command{
			{Slot: 0, Op: OpPowerDownEnter},
			{Slot: 4, Op: OpPowerDownExit},
		}, "tCKEmin")
	})
	t.Run("exit exactly at tCKEmin", func(t *testing.T) {
		s := New(m)
		if err := s.Run([]Command{
			{Slot: 0, Op: OpPowerDownEnter},
			{Slot: 5, Op: OpPowerDownExit},
		}); err != nil {
			t.Errorf("exit at exact tCKEmin rejected: %v", err)
		}
	})
	t.Run("exit without entry", func(t *testing.T) {
		expectViolation(t, m, []Command{{Slot: 0, Op: OpPowerDownExit}}, "not in power-down")
	})
	t.Run("mismatched exit", func(t *testing.T) {
		expectViolation(t, m, []Command{
			{Slot: 0, Op: OpSelfRefreshEnter},
			{Slot: 10, Op: OpPowerDownExit},
		}, "not in power-down")
	})
	t.Run("activate during power-down", func(t *testing.T) {
		expectViolation(t, m, []Command{
			{Slot: 0, Op: OpPowerDownEnter},
			{Slot: 10, Op: desc.OpActivate, Bank: 0, Row: 1},
		}, "device in power_down")
	})
	t.Run("refresh during self-refresh", func(t *testing.T) {
		expectViolation(t, m, []Command{
			{Slot: 0, Op: OpSelfRefreshEnter},
			{Slot: 10, Op: desc.OpRefresh},
		}, "device in self_refresh")
	})
	t.Run("nop legal during power-down", func(t *testing.T) {
		s := New(m)
		if err := s.Run([]Command{
			{Slot: 0, Op: OpPowerDownEnter},
			{Slot: 2, Op: desc.OpNop},
		}); err != nil {
			t.Errorf("nop during power-down rejected: %v", err)
		}
	})
	t.Run("activate inside tXP window", func(t *testing.T) {
		// pdx at 5: exit valid at 5+6 = 11.
		expectViolation(t, m, []Command{
			{Slot: 0, Op: OpPowerDownEnter},
			{Slot: 5, Op: OpPowerDownExit},
			{Slot: 10, Op: desc.OpActivate, Bank: 0, Row: 1},
		}, "tXP")
	})
	t.Run("activate exactly at tXP", func(t *testing.T) {
		s := New(m)
		if err := s.Run([]Command{
			{Slot: 0, Op: OpPowerDownEnter},
			{Slot: 5, Op: OpPowerDownExit},
			{Slot: 11, Op: desc.OpActivate, Bank: 0, Row: 1},
		}); err != nil {
			t.Errorf("activate at exact tXP boundary rejected: %v", err)
		}
	})
	t.Run("activate inside tXS window", func(t *testing.T) {
		tXS := timing.For(m.D.Spec).XS
		expectViolation(t, m, []Command{
			{Slot: 0, Op: OpSelfRefreshEnter},
			{Slot: 5, Op: OpSelfRefreshExit},
			{Slot: 5 + tXS - 1, Op: desc.OpActivate, Bank: 0, Row: 1},
		}, "tXS")
	})
	t.Run("activate exactly at tXS", func(t *testing.T) {
		s := New(m)
		tXS := timing.For(m.D.Spec).XS
		if err := s.Run([]Command{
			{Slot: 0, Op: OpSelfRefreshEnter},
			{Slot: 5, Op: OpSelfRefreshExit},
			{Slot: 5 + tXS, Op: desc.OpActivate, Bank: 0, Row: 1},
		}); err != nil {
			t.Errorf("activate at exact tXS boundary rejected: %v", err)
		}
	})
	t.Run("re-entry inside tXP window", func(t *testing.T) {
		expectViolation(t, m, []Command{
			{Slot: 0, Op: OpPowerDownEnter},
			{Slot: 5, Op: OpPowerDownExit},
			{Slot: 8, Op: OpPowerDownEnter},
		}, "tXP")
	})
}

// TestPowerStateResidencyAccounting pins the tentpole's accounting: each
// slot lands in exactly one state bucket, and the background integral is
// the residency-weighted sum of the per-state powers — not the flat
// standby power the old engine charged even while the device slept.
func TestPowerStateResidencyAccounting(t *testing.T) {
	m := model(t)
	s := New(m)
	if err := s.Run([]Command{
		{Slot: 10, Op: OpPowerDownEnter},
		{Slot: 110, Op: OpPowerDownExit},
	}); err != nil {
		t.Fatal(err)
	}
	res := s.Result(210)
	if res.PowerDownSlots != 100 || res.PrechargedSlots != 110 || res.ActiveSlots != 0 || res.SelfRefreshSlots != 0 {
		t.Fatalf("residency split: %+v", res)
	}
	if sum := res.ActiveSlots + res.PrechargedSlots + res.PowerDownSlots + res.SelfRefreshSlots; sum != res.Slots {
		t.Errorf("state slots sum to %d, want Slots = %d", sum, res.Slots)
	}
	clock := float64(m.D.Spec.ControlClock)
	wantBg := float64(m.Background().Power)*(110/clock) + float64(m.PowerDownPower())*(100/clock)
	if got := float64(res.Background); math.Abs(got-wantBg) > 1e-12*wantBg {
		t.Errorf("background: got %g, want residency-weighted %g", got, wantBg)
	}
	// The whole point of the fix: the flat integral overcharged this trace.
	flat := float64(m.Background().Power) * (210 / clock)
	if float64(res.Background) >= flat {
		t.Errorf("power-down trace background %g not below flat integral %g", float64(res.Background), flat)
	}
	// Per-state energies agree with their residencies.
	wantPd := float64(m.PowerDownPower()) * (100 / clock)
	if got := float64(res.PowerDownBackground); math.Abs(got-wantPd) > 1e-12*wantPd {
		t.Errorf("power-down background: got %g, want %g", got, wantPd)
	}
	// pde/pdx are CKE transitions, not charge events: no command energy.
	if res.CommandEnergy != 0 {
		t.Errorf("power-state commands accrued command energy: %v", res.CommandEnergy)
	}
	if res.Counts[OpPowerDownEnter] != 1 || res.Counts[OpPowerDownExit] != 1 {
		t.Errorf("power-state counts: %v", res.Counts)
	}
}

// Satellite: the active/precharged split of a plain idle-heavy trace. The
// two states draw the same power in this model (IDD3N == IDD2N), but the
// residency report must still attribute slots to the right bucket.
func TestResidencySplitIdleHeavyTrace(t *testing.T) {
	m := model(t)
	s := New(m)
	if err := s.Run([]Command{
		{Slot: 0, Op: desc.OpActivate, Bank: 0, Row: 1},
		{Slot: 11, Op: desc.OpRead, Bank: 0, Row: 1},
		{Slot: 28, Op: desc.OpPrecharge, Bank: 0, Row: 1},
	}); err != nil {
		t.Fatal(err)
	}
	res := s.Result(1028)
	if res.ActiveSlots != 28 {
		t.Errorf("active slots: got %d, want 28 (activate at 0, precharge at 28)", res.ActiveSlots)
	}
	if res.PrechargedSlots != 1000 {
		t.Errorf("precharged slots: got %d, want 1000", res.PrechargedSlots)
	}
	if res.PowerDownSlots != 0 || res.SelfRefreshSlots != 0 {
		t.Errorf("plain trace reports low-power residency: %+v", res)
	}
	// Equal standby powers: the split energies recombine to Background
	// (up to one rounding step each).
	split := float64(res.ActiveBackground) + float64(res.PrechargedBackground)
	if bg := float64(res.Background); math.Abs(split-bg) > 1e-12*bg {
		t.Errorf("active+precharged background %g != Background %g", split, bg)
	}
	clock := float64(m.D.Spec.ControlClock)
	if want := float64(m.Background().Power) * (1028 / clock); float64(res.Background) != want {
		t.Errorf("plain-trace background %g, want flat %g bit-identical", float64(res.Background), want)
	}
}

// Overlapping open banks: the device is Active while ANY bank holds an
// open row, and returns to Precharged only when the last one closes.
func TestActiveResidencyTracksOpenBanks(t *testing.T) {
	m := model(t)
	s := New(m)
	if err := s.Run([]Command{
		{Slot: 0, Op: desc.OpActivate, Bank: 0, Row: 1},
		{Slot: 8, Op: desc.OpActivate, Bank: 1, Row: 1},
		{Slot: 28, Op: desc.OpPrecharge, Bank: 0, Row: 1}, // bank 1 still open
		{Slot: 40, Op: desc.OpPrecharge, Bank: 1, Row: 1},
	}); err != nil {
		t.Fatal(err)
	}
	res := s.Result(50)
	if res.ActiveSlots != 40 {
		t.Errorf("active slots: got %d, want 40 (first activate to last precharge)", res.ActiveSlots)
	}
	if res.PrechargedSlots != 10 {
		t.Errorf("precharged slots: got %d, want 10", res.PrechargedSlots)
	}
}

// The power-state hot path stays allocation-free: residency bookkeeping
// uses the fixed [NumStates] arrays, never a map or slice.
func TestIssueZeroAllocsPowerStates(t *testing.T) {
	m := model(t)
	s := New(m)
	tCKE, tXP := timing.For(m.D.Spec).CKE, timing.For(m.D.Spec).XP
	var cmds []Command
	slot := int64(0)
	for len(cmds) < 1200 {
		cmds = append(cmds, Command{Slot: slot, Op: OpPowerDownEnter})
		cmds = append(cmds, Command{Slot: slot + tCKE, Op: OpPowerDownExit})
		slot += tCKE + tXP
	}
	i := 0
	allocs := testing.AllocsPerRun(1100, func() {
		if err := s.Issue(cmds[i]); err != nil {
			panic(err)
		}
		i++
	})
	if allocs != 0 {
		t.Errorf("power-state Issue allocated %.2f times per command, want 0", allocs)
	}
}

func TestWithPowerDownInsertion(t *testing.T) {
	m := model(t)
	base := RefreshOnly(m, 20)
	cmds := WithPowerDown(m, base, 1)
	res, err := Evaluate(m, cmds)
	if err != nil {
		t.Fatalf("inserted trace illegal: %v", err)
	}
	if res.Counts[OpPowerDownEnter] == 0 {
		t.Fatal("no power-down windows inserted into a refresh-only trace")
	}
	if res.Counts[OpPowerDownEnter] != res.Counts[OpPowerDownExit] {
		t.Errorf("unbalanced pde/pdx: %d vs %d", res.Counts[OpPowerDownEnter], res.Counts[OpPowerDownExit])
	}
	if res.Counts[desc.OpRefresh] != 20 {
		t.Errorf("insertion dropped refreshes: %d, want 20", res.Counts[desc.OpRefresh])
	}
	// The inserted sleep must cut background energy vs the plain trace.
	plain, err := Evaluate(m, base)
	if err != nil {
		t.Fatal(err)
	}
	if res.Background >= plain.Background {
		t.Errorf("power-down trace background %v not below plain %v", res.Background, plain.Background)
	}
	// minIdle larger than every gap inserts nothing.
	untouched := WithPowerDown(m, base, 1<<40)
	if len(untouched) != len(base) {
		t.Errorf("minIdle beyond all gaps still inserted %d commands", len(untouched)-len(base))
	}
}

// WithPowerDown on an illegal input returns the remainder untouched so
// replay surfaces the violation exactly as without insertion.
func TestWithPowerDownIllegalInputPassthrough(t *testing.T) {
	m := model(t)
	bad := []Command{
		{Slot: 0, Op: desc.OpActivate, Bank: 0, Row: 1},
		{Slot: 3, Op: desc.OpRead, Bank: 0, Row: 1}, // tRCD violation
	}
	out := WithPowerDown(m, bad, 1)
	if len(out) != len(bad) {
		t.Fatalf("illegal input rewritten: %d commands, want %d", len(out), len(bad))
	}
	if _, err := Evaluate(m, out); err == nil {
		t.Error("violation in the input disappeared")
	}
}

// Acceptance: a ~90%-power-down-residency trace reports background energy
// equal (well within the 5% acceptance band) to the residency-weighted sum
// of state power x state time, and the power-down draw matches IDD2P.
func TestPowerDownHeavyTraceAcceptance(t *testing.T) {
	m := model(t)
	cmds := WithPowerDown(m, RefreshOnly(m, 100), 1)
	res, err := Evaluate(m, cmds)
	if err != nil {
		t.Fatal(err)
	}
	if share := float64(res.PowerDownSlots) / float64(res.Slots); share < 0.9 {
		t.Fatalf("power-down residency %.2f, want >= 0.9 (slots %d of %d)",
			share, res.PowerDownSlots, res.Slots)
	}
	clock := float64(m.D.Spec.ControlClock)
	want := float64(m.Background().Power)*(float64(res.ActiveSlots+res.PrechargedSlots)/clock) +
		float64(m.PowerDownPower())*(float64(res.PowerDownSlots)/clock) +
		float64(m.SelfRefreshPower())*(float64(res.SelfRefreshSlots)/clock)
	if got := float64(res.Background); math.Abs(got-want) > 0.05*want {
		t.Errorf("background %g outside 5%% of residency-weighted sum %g", got, want)
	}
	// IDD2P consistency: the power-down bucket's average current is IDD2P.
	pdDur := float64(res.PowerDownSlots) / clock
	pdCurrent := float64(res.PowerDownBackground) / pdDur / float64(m.D.Electrical.Vdd)
	if idd2p := float64(m.IDD2P()); math.Abs(pdCurrent-idd2p) > 1e-9*idd2p {
		t.Errorf("power-down draw %g A, want IDD2P %g A", pdCurrent, idd2p)
	}
	// The streaming replay path reports the identical accounting.
	var buf bytes.Buffer
	if err := WriteTrace(&buf, cmds); err != nil {
		t.Fatal(err)
	}
	rep, err := Replay(m, &buf, ReplayOptions{Channels: 1, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Background != res.Background || rep.PowerDownSlots != res.PowerDownSlots ||
		rep.Total != res.Total {
		t.Errorf("replay accounting differs from in-memory run:\n run:    %+v\n replay: %+v", res, rep)
	}
}

func TestScannerPowerStateFormat(t *testing.T) {
	src := strings.Join([]string{
		"0 ref",
		"200 pde",
		"800 PDX # case-insensitive",
		"900 sre",
		"12000 srx",
	}, "\n")
	want := []Command{
		{Slot: 0, Op: desc.OpRefresh},
		{Slot: 200, Op: OpPowerDownEnter},
		{Slot: 800, Op: OpPowerDownExit},
		{Slot: 900, Op: OpSelfRefreshEnter},
		{Slot: 12000, Op: OpSelfRefreshExit},
	}
	sc := NewScanner(strings.NewReader(src))
	var got []Command
	for sc.Scan() {
		got = append(got, sc.Command())
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("got %d commands, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("command %d: got %v, want %v", i, got[i], want[i])
		}
	}
	// Round trip through the writer.
	var buf bytes.Buffer
	if err := WriteTrace(&buf, want); err != nil {
		t.Fatal(err)
	}
	for _, mnemonic := range []string{"pde", "pdx", "sre", "srx"} {
		if !strings.Contains(buf.String(), " "+mnemonic+" ") {
			t.Errorf("rendered trace missing %q:\n%s", mnemonic, buf.String())
		}
	}
	rt := NewScanner(&buf)
	for i := 0; rt.Scan(); i++ {
		if rt.Command() != want[i] {
			t.Errorf("round-trip command %d: got %v, want %v", i, rt.Command(), want[i])
		}
	}
	if err := rt.Err(); err != nil {
		t.Fatal(err)
	}
}

func TestOpName(t *testing.T) {
	cases := []struct {
		op   desc.Op
		want string
	}{
		{desc.OpActivate, "act"},
		{desc.OpNop, "nop"},
		{OpPowerDownEnter, "pde"},
		{OpPowerDownExit, "pdx"},
		{OpSelfRefreshEnter, "sre"},
		{OpSelfRefreshExit, "srx"},
	}
	for _, c := range cases {
		if got := OpName(c.op); got != c.want {
			t.Errorf("OpName(%d): got %q, want %q", c.op, got, c.want)
		}
	}
	for st, want := range map[State]string{
		StateActive: "active", StatePrecharged: "precharged",
		StatePowerDown: "power_down", StateSelfRefresh: "self_refresh",
	} {
		if got := st.String(); got != want {
			t.Errorf("State(%d).String(): got %q, want %q", st, got, want)
		}
	}
}
