// Package units provides typed physical quantities in SI base units,
// together with parsing and formatting of engineering notation such as
// "165nm", "80fF", "1.6Gbps" or "800MHz".
//
// The DRAM description language (package desc) is written almost entirely
// in terms of these quantities, and the power engine (package core) keeps
// all arithmetic in SI base units so that ½·C·V²·f directly yields watts.
package units

import (
	"fmt"
	"math"
	"strconv"
	"strings"
)

// Length is a physical length in meters.
type Length float64

// Capacitance is an electrical capacitance in farads.
type Capacitance float64

// Voltage is an electrical potential in volts.
type Voltage float64

// Duration is a time span in seconds. The name avoids a clash with
// time.Duration, which has nanosecond integer resolution and is not
// convenient for picosecond-scale analog quantities.
type Duration float64

// Frequency is a rate in hertz.
type Frequency float64

// Power is a power in watts.
type Power float64

// Current is an electrical current in amperes.
type Current float64

// Charge is an electrical charge in coulombs.
type Charge float64

// Energy is an energy in joules.
type Energy float64

// DataRate is a data rate in bits per second.
type DataRate float64

// CapacitancePerLength is a specific wire capacitance in farads per meter.
type CapacitancePerLength float64

// Area is an area in square meters.
type Area float64

// Common scale constants, usable as e.g. 165 * units.Nano * units.Length(1)
// or simply units.Nanometers(165).
const (
	Femto = 1e-15
	Pico  = 1e-12
	Nano  = 1e-9
	Micro = 1e-6
	Milli = 1e-3
	Kilo  = 1e3
	Mega  = 1e6
	Giga  = 1e9
	Tera  = 1e12
)

// Nanometers returns a Length of n nanometers.
func Nanometers(n float64) Length { return Length(n * Nano) }

// Micrometers returns a Length of n micrometers.
func Micrometers(n float64) Length { return Length(n * Micro) }

// Femtofarads returns a Capacitance of n femtofarads.
func Femtofarads(n float64) Capacitance { return Capacitance(n * Femto) }

// Picofarads returns a Capacitance of n picofarads.
func Picofarads(n float64) Capacitance { return Capacitance(n * Pico) }

// Nanoseconds returns a Duration of n nanoseconds.
func Nanoseconds(n float64) Duration { return Duration(n * Nano) }

// Megahertz returns a Frequency of n megahertz.
func Megahertz(n float64) Frequency { return Frequency(n * Mega) }

// Gbps returns a DataRate of n gigabits per second.
func Gbps(n float64) DataRate { return DataRate(n * Giga) }

// Milliamps returns a Current of n milliamperes.
func Milliamps(n float64) Current { return Current(n * Milli) }

// Milliwatts returns a Power of n milliwatts.
func Milliwatts(n float64) Power { return Power(n * Milli) }

// Picojoules returns an Energy of n picojoules.
func Picojoules(n float64) Energy { return Energy(n * Pico) }

// FemtofaradsPerMicrometer returns a specific wire capacitance of
// n fF/µm, the customary unit for on-chip wiring (1 fF/µm = 1e-9 F/m).
func FemtofaradsPerMicrometer(n float64) CapacitancePerLength {
	return CapacitancePerLength(n * Femto / Micro)
}

// Micrometers reports the length in micrometers.
func (l Length) Micrometers() float64 { return float64(l) / Micro }

// Nanometers reports the length in nanometers.
func (l Length) Nanometers() float64 { return float64(l) / Nano }

// Femtofarads reports the capacitance in femtofarads.
func (c Capacitance) Femtofarads() float64 { return float64(c) / Femto }

// Picofarads reports the capacitance in picofarads.
func (c Capacitance) Picofarads() float64 { return float64(c) / Pico }

// Nanoseconds reports the duration in nanoseconds.
func (d Duration) Nanoseconds() float64 { return float64(d) / Nano }

// Megahertz reports the frequency in megahertz.
func (f Frequency) Megahertz() float64 { return float64(f) / Mega }

// Gbps reports the data rate in gigabits per second.
func (r DataRate) Gbps() float64 { return float64(r) / Giga }

// Milliamps reports the current in milliamperes.
func (i Current) Milliamps() float64 { return float64(i) / Milli }

// Milliwatts reports the power in milliwatts.
func (p Power) Milliwatts() float64 { return float64(p) / Milli }

// Picojoules reports the energy in picojoules.
func (e Energy) Picojoules() float64 { return float64(e) / Pico }

// Period returns the cycle time of the frequency, or 0 for f == 0.
func (f Frequency) Period() Duration {
	if f == 0 {
		return 0
	}
	return Duration(1 / float64(f))
}

// Frequency returns the repetition rate of the duration, or 0 for d == 0.
func (d Duration) Frequency() Frequency {
	if d == 0 {
		return 0
	}
	return Frequency(1 / float64(d))
}

// SwitchingEnergy returns the energy dissipated when charging or
// discharging capacitance c across voltage v: ε = ½·C·V² (paper Eq. 1).
func SwitchingEnergy(c Capacitance, v Voltage) Energy {
	return Energy(0.5 * float64(c) * float64(v) * float64(v))
}

// ChargeFor returns the charge moved when capacitance c swings by v:
// Q = C·V.
func ChargeFor(c Capacitance, v Voltage) Charge {
	return Charge(float64(c) * float64(v))
}

// CurrentAt converts a charge moved per event into the average current when
// the event repeats with frequency f: I = Q·f.
func (q Charge) CurrentAt(f Frequency) Current {
	return Current(float64(q) * float64(f))
}

// PowerAt converts an energy per event into average power at repetition
// frequency f: P = ε·f.
func (e Energy) PowerAt(f Frequency) Power {
	return Power(float64(e) * float64(f))
}

// Times scales the charge by a dimensionless factor.
func (q Charge) Times(x float64) Charge { return Charge(float64(q) * x) }

// Times scales the energy by a dimensionless factor.
func (e Energy) Times(x float64) Energy { return Energy(float64(e) * x) }

// Times scales the capacitance by a dimensionless factor.
func (c Capacitance) Times(x float64) Capacitance { return Capacitance(float64(c) * x) }

// siPrefixes maps metric prefix runes to their multiplier. "u" and "µ" are
// both accepted for micro.
var siPrefixes = map[string]float64{
	"f": Femto, "p": Pico, "n": Nano, "u": Micro, "µ": Micro,
	"m": Milli, "k": Kilo, "K": Kilo, "M": Mega, "G": Giga, "T": Tera,
	"": 1,
}

// splitNumber splits s into its leading numeric part and trailing suffix.
func splitNumber(s string) (num float64, suffix string, err error) {
	s = strings.TrimSpace(s)
	i := 0
	for i < len(s) {
		c := s[i]
		if (c >= '0' && c <= '9') || c == '.' || c == '-' || c == '+' ||
			c == 'e' || c == 'E' {
			// Accept 'e'/'E' only when followed by a digit or sign so that
			// unit strings like "80fF" don't swallow the 'F'.
			if c == 'e' || c == 'E' {
				if i+1 >= len(s) {
					break
				}
				n := s[i+1]
				if !(n >= '0' && n <= '9') && n != '-' && n != '+' {
					break
				}
			}
			i++
			continue
		}
		break
	}
	if i == 0 {
		return 0, "", fmt.Errorf("units: %q has no numeric part", s)
	}
	num, err = strconv.ParseFloat(s[:i], 64)
	if err != nil {
		return 0, "", fmt.Errorf("units: bad number in %q: %v", s, err)
	}
	return num, strings.TrimSpace(s[i:]), nil
}

// parseWithUnit parses a number followed by an optional SI prefix and the
// given base unit symbol(s). An empty suffix is accepted and means the base
// unit (value in SI base units).
func parseWithUnit(s string, base ...string) (float64, error) {
	num, suffix, err := splitNumber(s)
	if err != nil {
		return 0, err
	}
	if suffix == "" {
		return num, nil
	}
	for _, b := range base {
		if !strings.HasSuffix(suffix, b) {
			continue
		}
		prefix := strings.TrimSuffix(suffix, b)
		mult, ok := siPrefixes[prefix]
		if !ok {
			return 0, fmt.Errorf("units: unknown SI prefix %q in %q", prefix, s)
		}
		v := num * mult
		if !finite(v) {
			return 0, fmt.Errorf("units: %q is out of range", s)
		}
		return v, nil
	}
	return 0, fmt.Errorf("units: %q does not end in one of %v", s, base)
}

// ParseLength parses strings such as "165nm", "3396um", "0.11µm", "1mm".
func ParseLength(s string) (Length, error) {
	v, err := parseWithUnit(s, "m")
	return Length(v), err
}

// ParseCapacitance parses strings such as "80fF", "1.2pF".
func ParseCapacitance(s string) (Capacitance, error) {
	v, err := parseWithUnit(s, "F")
	return Capacitance(v), err
}

// ParseVoltage parses strings such as "1.5V", "2900mV".
func ParseVoltage(s string) (Voltage, error) {
	v, err := parseWithUnit(s, "V")
	return Voltage(v), err
}

// ParseCurrent parses strings such as "58mA", "1.2A".
func ParseCurrent(s string) (Current, error) {
	v, err := parseWithUnit(s, "A")
	return Current(v), err
}

// ParsePower parses strings such as "45mW", "1.1W".
func ParsePower(s string) (Power, error) {
	v, err := parseWithUnit(s, "W")
	return Power(v), err
}

// ParseEnergy parses strings such as "2.4nJ", "135pJ".
func ParseEnergy(s string) (Energy, error) {
	v, err := parseWithUnit(s, "J")
	return Energy(v), err
}

// ParseDuration parses strings such as "48.75ns", "13.75ns", "7.8us".
func ParseDuration(s string) (Duration, error) {
	v, err := parseWithUnit(s, "s")
	return Duration(v), err
}

// ParseFrequency parses strings such as "800MHz", "1.6GHz".
func ParseFrequency(s string) (Frequency, error) {
	v, err := parseWithUnit(s, "Hz")
	return Frequency(v), err
}

// ParseDataRate parses strings such as "1.6Gbps", "533Mbps", "800Mbit/s".
func ParseDataRate(s string) (DataRate, error) {
	v, err := parseWithUnit(s, "bps", "bit/s", "b/s")
	return DataRate(v), err
}

// ParseCapacitancePerLength parses specific wire capacitance such as
// "0.2fF/um", "200pF/m".
func ParseCapacitancePerLength(s string) (CapacitancePerLength, error) {
	parts := strings.SplitN(s, "/", 2)
	if len(parts) != 2 {
		// Bare number: already F/m.
		num, suffix, err := splitNumber(s)
		if err != nil {
			return 0, err
		}
		if suffix != "" {
			return 0, fmt.Errorf("units: %q is not a capacitance per length", s)
		}
		return CapacitancePerLength(num), nil
	}
	c, err := ParseCapacitance(parts[0])
	if err != nil {
		return 0, err
	}
	// The denominator is a bare unit like "um" or "m" (no number).
	l, err := ParseLength("1" + strings.TrimSpace(parts[1]))
	if err != nil {
		return 0, err
	}
	if l == 0 {
		return 0, fmt.Errorf("units: zero denominator in %q", s)
	}
	v := float64(c) / float64(l)
	if !finite(v) {
		return 0, fmt.Errorf("units: %q is out of range", s)
	}
	return CapacitancePerLength(v), nil
}

// ParseFraction parses "25%", "0.25" or "1:8"-style ratios into a plain
// fraction. A result that is not finite, a NaN or an infinity written
// out or a ratio whose quotient overflows, is an error: no fraction of
// the model can be one.
func ParseFraction(s string) (float64, error) {
	s = strings.TrimSpace(s)
	if strings.Contains(s, ":") {
		parts := strings.SplitN(s, ":", 2)
		a, err1 := strconv.ParseFloat(strings.TrimSpace(parts[0]), 64)
		b, err2 := strconv.ParseFloat(strings.TrimSpace(parts[1]), 64)
		if err1 != nil || err2 != nil || b == 0 || !finite(a/b) {
			return 0, fmt.Errorf("units: bad ratio %q", s)
		}
		return a / b, nil
	}
	if strings.HasSuffix(s, "%") {
		v, err := strconv.ParseFloat(strings.TrimSuffix(s, "%"), 64)
		if err != nil || !finite(v) {
			return 0, fmt.Errorf("units: bad percentage %q", s)
		}
		return v / 100, nil
	}
	v, err := strconv.ParseFloat(s, 64)
	if err != nil || !finite(v) {
		return 0, fmt.Errorf("units: bad fraction %q", s)
	}
	return v, nil
}

// finite reports whether v is neither a NaN nor an infinity.
func finite(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }

// FormatSI renders v with an engineering SI prefix and the given unit
// symbol, e.g. FormatSI(8e-14, "F") == "80fF".
func FormatSI(v float64, unit string) string {
	if v == 0 {
		return "0" + unit
	}
	type step struct {
		mult float64
		pfx  string
	}
	steps := []step{
		{Tera, "T"}, {Giga, "G"}, {Mega, "M"}, {Kilo, "k"},
		{1, ""}, {Milli, "m"}, {Micro, "u"}, {Nano, "n"},
		{Pico, "p"}, {Femto, "f"},
	}
	abs := math.Abs(v)
	for _, st := range steps {
		if abs >= st.mult*0.9995 {
			return trimFloat(v/st.mult) + st.pfx + unit
		}
	}
	last := steps[len(steps)-1]
	return trimFloat(v/last.mult) + last.pfx + unit
}

// trimFloat formats f with up to 4 significant digits, trimming zeros.
func trimFloat(f float64) string {
	s := strconv.FormatFloat(f, 'g', 4, 64)
	return s
}

// String renders the length in engineering notation.
func (l Length) String() string { return FormatSI(float64(l), "m") }

// String renders the capacitance in engineering notation.
func (c Capacitance) String() string { return FormatSI(float64(c), "F") }

// String renders the voltage in engineering notation.
func (v Voltage) String() string { return FormatSI(float64(v), "V") }

// String renders the duration in engineering notation.
func (d Duration) String() string { return FormatSI(float64(d), "s") }

// String renders the frequency in engineering notation.
func (f Frequency) String() string { return FormatSI(float64(f), "Hz") }

// String renders the power in engineering notation.
func (p Power) String() string { return FormatSI(float64(p), "W") }

// String renders the current in engineering notation.
func (i Current) String() string { return FormatSI(float64(i), "A") }

// String renders the charge in engineering notation.
func (q Charge) String() string { return FormatSI(float64(q), "C") }

// String renders the energy in engineering notation.
func (e Energy) String() string { return FormatSI(float64(e), "J") }

// String renders the data rate in engineering notation.
func (r DataRate) String() string { return FormatSI(float64(r), "bps") }
