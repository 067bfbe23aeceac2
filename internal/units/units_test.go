package units

import (
	"math"
	"testing"
	"testing/quick"
)

func approx(t *testing.T, got, want, tol float64, what string) {
	t.Helper()
	if math.Abs(got-want) > tol*math.Abs(want)+1e-30 {
		t.Errorf("%s: got %g, want %g", what, got, want)
	}
}

func TestParseLength(t *testing.T) {
	cases := []struct {
		in   string
		want float64
	}{
		{"165nm", 165e-9},
		{"110nm", 110e-9},
		{"3396um", 3396e-6},
		{"3396µm", 3396e-6},
		{"0.2mm", 0.2e-3},
		{"1m", 1},
		{"2.5", 2.5}, // bare number = meters
		{"1e-6m", 1e-6},
	}
	for _, c := range cases {
		got, err := ParseLength(c.in)
		if err != nil {
			t.Fatalf("ParseLength(%q): %v", c.in, err)
		}
		approx(t, float64(got), c.want, 1e-12, "ParseLength("+c.in+")")
	}
}

func TestParseLengthErrors(t *testing.T) {
	for _, in := range []string{"", "nm", "12xF", "12qm", "12 parsecs"} {
		if _, err := ParseLength(in); err == nil {
			t.Errorf("ParseLength(%q): expected error", in)
		}
	}
}

// TestParseRejectsOverflow: a number that is finite but overflows once
// its SI prefix scales it, or a per-length quotient that overflows, is an
// error, not an infinity that every check of the form !(v > 0) passes.
func TestParseRejectsOverflow(t *testing.T) {
	for _, tc := range []struct {
		in    string
		parse func(string) (float64, error)
	}{
		{"1e308kV", func(s string) (float64, error) { v, err := ParseVoltage(s); return float64(v), err }},
		{"-1e308kV", func(s string) (float64, error) { v, err := ParseVoltage(s); return float64(v), err }},
		{"1e300THz", func(s string) (float64, error) { v, err := ParseFrequency(s); return float64(v), err }},
		{"2e305ks", func(s string) (float64, error) { v, err := ParseDuration(s); return float64(v), err }},
		{"1.7976931348623157e308kA", func(s string) (float64, error) { v, err := ParseCurrent(s); return float64(v), err }},
		{"1e306Gbps", func(s string) (float64, error) { v, err := ParseDataRate(s); return float64(v), err }},
		{"1e300F/am", func(s string) (float64, error) { v, err := ParseCapacitancePerLength(s); return float64(v), err }},
	} {
		if v, err := tc.parse(tc.in); err == nil {
			t.Errorf("%q parsed to %v, want an out-of-range error", tc.in, v)
		}
	}
	// The largest finite values still parse.
	if v, err := ParseVoltage("1e308V"); err != nil || v != 1e308 {
		t.Errorf("ParseVoltage(1e308V) = %v, %v", v, err)
	}
	if v, err := ParseVoltage("1e305kV"); err != nil || v != 1e308 {
		t.Errorf("ParseVoltage(1e305kV) = %v, %v", v, err)
	}
}

func TestParseCapacitance(t *testing.T) {
	got, err := ParseCapacitance("80fF")
	if err != nil {
		t.Fatal(err)
	}
	approx(t, float64(got), 80e-15, 1e-12, "80fF")
	got, err = ParseCapacitance("1.4pF")
	if err != nil {
		t.Fatal(err)
	}
	approx(t, float64(got), 1.4e-12, 1e-12, "1.4pF")
}

func TestParseVoltage(t *testing.T) {
	got, err := ParseVoltage("1.5V")
	if err != nil {
		t.Fatal(err)
	}
	approx(t, float64(got), 1.5, 1e-12, "1.5V")
	got, err = ParseVoltage("2900mV")
	if err != nil {
		t.Fatal(err)
	}
	approx(t, float64(got), 2.9, 1e-12, "2900mV")
}

func TestParseFrequency(t *testing.T) {
	got, err := ParseFrequency("800MHz")
	if err != nil {
		t.Fatal(err)
	}
	approx(t, float64(got), 800e6, 1e-12, "800MHz")
}

func TestParseDataRate(t *testing.T) {
	for _, in := range []string{"1.6Gbps", "1.6Gbit/s", "1.6Gb/s"} {
		got, err := ParseDataRate(in)
		if err != nil {
			t.Fatalf("ParseDataRate(%q): %v", in, err)
		}
		approx(t, float64(got), 1.6e9, 1e-12, in)
	}
}

func TestParseDuration(t *testing.T) {
	got, err := ParseDuration("48.75ns")
	if err != nil {
		t.Fatal(err)
	}
	approx(t, float64(got), 48.75e-9, 1e-12, "48.75ns")
}

func TestParseCapacitancePerLength(t *testing.T) {
	got, err := ParseCapacitancePerLength("0.2fF/um")
	if err != nil {
		t.Fatal(err)
	}
	approx(t, float64(got), 0.2e-15/1e-6, 1e-12, "0.2fF/um")
	got, err = ParseCapacitancePerLength("200pF/m")
	if err != nil {
		t.Fatal(err)
	}
	approx(t, float64(got), 200e-12, 1e-12, "200pF/m")
}

func TestParseFraction(t *testing.T) {
	cases := []struct {
		in   string
		want float64
	}{
		{"25%", 0.25},
		{"0.25", 0.25},
		{"1:8", 0.125},
		{"100%", 1},
		{"3:2", 1.5},
	}
	for _, c := range cases {
		got, err := ParseFraction(c.in)
		if err != nil {
			t.Fatalf("ParseFraction(%q): %v", c.in, err)
		}
		approx(t, got, c.want, 1e-12, "ParseFraction("+c.in+")")
	}
	for _, c := range []struct{ in, want string }{
		{"", `units: bad fraction ""`},
		{"x%", `units: bad percentage "x%"`},
		{"1:0", `units: bad ratio "1:0"`},
		{"a:b", `units: bad ratio "a:b"`},
		// Not finite: written out, as a percentage, or a ratio whose
		// quotient overflows or is undefined.
		{"NaN", `units: bad fraction "NaN"`},
		{"Inf", `units: bad fraction "Inf"`},
		{"-Inf", `units: bad fraction "-Inf"`},
		{"+infinity", `units: bad fraction "+infinity"`},
		{"NaN%", `units: bad percentage "NaN%"`},
		{"Inf%", `units: bad percentage "Inf%"`},
		{"1e308:1e-308", `units: bad ratio "1e308:1e-308"`},
		{"NaN:1", `units: bad ratio "NaN:1"`},
		{"Inf:2", `units: bad ratio "Inf:2"`},
	} {
		if v, err := ParseFraction(c.in); err == nil || err.Error() != c.want {
			t.Errorf("ParseFraction(%q) = %g, %v; want error %s", c.in, v, err, c.want)
		}
	}
}

func TestSwitchingEnergy(t *testing.T) {
	// ½·C·V²: 100fF at 1.5V = 112.5fJ
	e := SwitchingEnergy(Femtofarads(100), 1.5)
	approx(t, float64(e), 112.5e-15, 1e-12, "switching energy")
}

func TestChargeCurrentPower(t *testing.T) {
	q := ChargeFor(Picofarads(1), 1.0) // 1pC
	i := q.CurrentAt(Megahertz(100))   // 1pC * 100MHz = 100uA
	approx(t, float64(i), 100e-6, 1e-12, "current")
	e := SwitchingEnergy(Picofarads(2), 2) // 4pJ
	p := e.PowerAt(Megahertz(1))           // 4uW
	approx(t, float64(p), 4e-6, 1e-12, "power")
}

func TestPeriodFrequencyInverse(t *testing.T) {
	f := Megahertz(800)
	approx(t, float64(f.Period()), 1.25e-9, 1e-12, "period")
	if got := Frequency(0).Period(); got != 0 {
		t.Errorf("zero frequency period: got %v", got)
	}
	if got := Duration(0).Frequency(); got != 0 {
		t.Errorf("zero duration frequency: got %v", got)
	}
}

func TestFormatSI(t *testing.T) {
	cases := []struct {
		v    float64
		unit string
		want string
	}{
		{80e-15, "F", "80fF"},
		{1.5, "V", "1.5V"},
		{800e6, "Hz", "800MHz"},
		{0, "W", "0W"},
		{48.75e-9, "s", "48.75ns"},
		{-3e-3, "A", "-3mA"},
	}
	for _, c := range cases {
		if got := FormatSI(c.v, c.unit); got != c.want {
			t.Errorf("FormatSI(%g, %q) = %q, want %q", c.v, c.unit, got, c.want)
		}
	}
}

// Property: switching energy is quadratic in voltage.
func TestPropEnergyQuadraticInVoltage(t *testing.T) {
	f := func(cRaw, vRaw float64) bool {
		c := Capacitance(math.Abs(math.Mod(cRaw, 1e-9)))
		v := Voltage(math.Abs(math.Mod(vRaw, 10)))
		e1 := SwitchingEnergy(c, v)
		e2 := SwitchingEnergy(c, 2*v)
		return math.Abs(float64(e2)-4*float64(e1)) <= 1e-9*math.Abs(float64(e2))+1e-30
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: charge and current scale linearly with capacitance and frequency.
func TestPropCurrentLinear(t *testing.T) {
	f := func(cRaw, fRaw float64) bool {
		c := Capacitance(math.Abs(math.Mod(cRaw, 1e-9)))
		fq := Frequency(math.Abs(math.Mod(fRaw, 1e10)))
		q := ChargeFor(c, 1)
		i1 := q.CurrentAt(fq)
		i2 := q.Times(2).CurrentAt(fq)
		return math.Abs(float64(i2)-2*float64(i1)) <= 1e-9*math.Abs(float64(i2))+1e-30
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: parse/format round trip for lengths within format precision.
func TestPropLengthRoundTrip(t *testing.T) {
	f := func(raw float64) bool {
		v := math.Abs(math.Mod(raw, 1e-3))
		if v < 1e-12 {
			return true // below femto formatting range
		}
		s := Length(v).String()
		back, err := ParseLength(s)
		if err != nil {
			return false
		}
		return math.Abs(float64(back)-v) <= 1e-3*v
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
