package desc

import (
	"fmt"
	"math"
	"sort"
	"strings"

	"drampower/internal/units"
)

// Format renders the description in the input language such that
// Parse(Format(d)) reproduces d. It is used for golden files, for emitting
// derived descriptions (scaled generations, scheme variants) and for the
// round-trip property test.
func Format(d *Description) string {
	var b strings.Builder
	write(&b, d)
	return b.String()
}

func write(b *strings.Builder, d *Description) {
	if d.Name != "" {
		fmt.Fprintf(b, "Name %s\n\n", d.Name)
	}

	fp := &d.Floorplan
	b.WriteString("FloorplanPhysical\n")
	fmt.Fprintf(b, "CellArray BL=%s BitsPerBL=%d BitsPerLWL=%d BLtype=%s\n",
		fp.BitlineDir, fp.BitsPerBitline, fp.BitsPerLocalWordline, fp.Arch)
	fmt.Fprintf(b, "CellArray WLpitch=%s BLpitch=%s\n",
		lenStr(fp.WordlinePitch), lenStr(fp.BitlinePitch))
	fmt.Fprintf(b, "Stripes BLSA=%s LWD=%s\n",
		lenStr(fp.BLSAStripeWidth), lenStr(fp.LWDStripeWidth))
	if fp.ActivationFraction > 0 && fp.ActivationFraction != 1 {
		fmt.Fprintf(b, "CellArray ActFraction=%g\n", fp.ActivationFraction)
	}
	fmt.Fprintf(b, "CSL blocks=%d\n", fp.BlocksPerCSL)
	fmt.Fprintf(b, "Horizontal blocks = %s\n", strings.Join(fp.HorizontalBlocks, " "))
	fmt.Fprintf(b, "SizeHorizontal %s\n", sizeList(fp.BlockWidth))
	fmt.Fprintf(b, "Vertical blocks = %s\n", strings.Join(fp.VerticalBlocks, " "))
	fmt.Fprintf(b, "SizeVertical %s\n", sizeList(fp.BlockHeight))

	b.WriteString("\nFloorplanSignaling\n")
	for _, s := range d.Signals {
		fmt.Fprintf(b, "%s", s.Name)
		if s.Inside != nil {
			fmt.Fprintf(b, " inside=%s fraction=%g dir=%s", s.Inside, s.Fraction, s.Dir)
		}
		if s.Start != nil {
			fmt.Fprintf(b, " start=%s", s.Start)
		}
		if s.End != nil {
			fmt.Fprintf(b, " end=%s", s.End)
		}
		if s.BufNWidth > 0 {
			fmt.Fprintf(b, " NchW=%s", lenStr(s.BufNWidth))
		}
		if s.BufPWidth > 0 {
			fmt.Fprintf(b, " PchW=%s", lenStr(s.BufPWidth))
		}
		if s.MuxRatio > 1 {
			fmt.Fprintf(b, " mux=1:%d", s.MuxRatio)
		}
		if s.Toggle >= 0 {
			fmt.Fprintf(b, " toggle=%g", s.Toggle)
		}
		if s.Wires > 0 {
			fmt.Fprintf(b, " wires=%d", s.Wires)
		}
		if s.ActiveFrac > 0 && s.ActiveFrac != 1 {
			fmt.Fprintf(b, " activefrac=%g", s.ActiveFrac)
		}
		b.WriteByte('\n')
	}

	b.WriteString("\nTechnology\n")
	for _, tp := range techParams {
		fmt.Fprintf(b, "%s %s\n", tp.name, formatTechValue(tp.field(&d.Technology)))
	}

	s := &d.Spec
	b.WriteString("\nSpecification\n")
	fmt.Fprintf(b, "IO width=%d datarate=%s\n", s.IOWidth, rateStr(s.DataRate))
	fmt.Fprintf(b, "Clock number=%d frequency=%s\n", s.ClockWires, freqStr(s.DataClock))
	fmt.Fprintf(b, "Control frequency=%s bankadd=%d rowadd=%d coladd=%d misc=%d\n",
		freqStr(s.ControlClock), s.BankAddrBits, s.RowAddrBits, s.ColAddrBits,
		s.MiscCtrlSignals)
	if s.BurstLength > 0 {
		fmt.Fprintf(b, "Burst length=%d\n", s.BurstLength)
	}
	b.WriteString("Timing")
	for _, tp := range timingParams {
		if v := *tp.field(s); v > 0 {
			fmt.Fprintf(b, " %s=%s", tp.key, durStr(v))
		}
	}
	b.WriteByte('\n')

	el := &d.Electrical
	b.WriteString("\nElectrical\n")
	fmt.Fprintf(b, "Vdd %s\n", voltStr(el.Vdd))
	fmt.Fprintf(b, "Vint %s eff=%g\n", voltStr(el.Vint), el.EffInt)
	fmt.Fprintf(b, "Vbl %s eff=%g\n", voltStr(el.Vbl), el.EffBl)
	fmt.Fprintf(b, "Vpp %s eff=%g\n", voltStr(el.Vpp), el.EffPp)
	if el.ConstantCurrent > 0 {
		fmt.Fprintf(b, "ConstantCurrent %s\n", units.FormatSI(float64(el.ConstantCurrent), "A"))
	}

	b.WriteByte('\n')
	for _, lb := range d.LogicBlocks {
		fmt.Fprintf(b, "LogicBlock name=%s gates=%d nmos=%s pmos=%s pergate=%g density=%g wiring=%g toggle=%g",
			lb.Name, lb.Gates, lenStr(lb.AvgNMOSWidth), lenStr(lb.AvgPMOSWidth),
			lb.TransistorsPerGate, lb.GateDensity, lb.WiringDensity, lb.Toggle)
		if len(lb.ActiveDuring) > 0 {
			names := make([]string, len(lb.ActiveDuring))
			for i, op := range lb.ActiveDuring {
				names[i] = op.String()
			}
			fmt.Fprintf(b, " active=%s", strings.Join(names, ","))
		}
		b.WriteByte('\n')
	}

	if len(d.Pattern.Loop) > 0 {
		fmt.Fprintf(b, "\nPattern loop= %s\n", d.Pattern.String())
	}
}

// formatTechValue renders the Technology field v points to, in the form
// parseTechValue reads back exactly.
func formatTechValue(v any) string {
	switch p := v.(type) {
	case *units.Length:
		return lenStr(*p)
	case *units.Capacitance:
		return capStr(*p)
	case *units.CapacitancePerLength:
		return cplStr(*p)
	case *float64:
		return fmt.Sprintf("%g", *p)
	case *int:
		return fmt.Sprintf("%d", *p)
	}
	panic(fmt.Sprintf("desc: technology field of type %T", v))
}

func sizeList(m map[string]units.Length) string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	parts := make([]string, len(keys))
	for i, k := range keys {
		parts[i] = fmt.Sprintf("%s=%s", k, lenStr(m[k]))
	}
	return strings.Join(parts, " ")
}

// Precise (non-rounding) formatters: serialization must round-trip exactly,
// so these use full float precision in fixed convenient units.
//
// Exactness is subtle: the parser reconstructs the SI value from the
// printed quotient with its own float rounding (sometimes two roundings,
// as for fF/um which multiplies by 1e-15 and then divides by 1e-6), so
// the naive division here can land one ulp away from a quotient that
// reproduces the stored value bit-exactly. exactQuot nudges the quotient
// by a few ulps until the parse-side reconstruction matches, which makes
// Format a true inverse of Parse — and the canonical form a fixed point —
// whenever the stored value was itself produced by parsing.
func exactQuot(v, div float64, recon func(float64) float64) float64 {
	q := v / div
	if recon(q) == v {
		return q
	}
	for _, dir := range [...]float64{math.Inf(1), math.Inf(-1)} {
		p := q
		for i := 0; i < 4; i++ {
			p = math.Nextafter(p, dir)
			if recon(p) == v {
				return p
			}
		}
	}
	return q
}

func lenStr(l units.Length) string {
	q := exactQuot(float64(l), units.Nano, func(q float64) float64 { return q * units.Nano })
	return fmt.Sprintf("%gnm", q)
}

func capStr(c units.Capacitance) string {
	q := exactQuot(float64(c), units.Femto, func(q float64) float64 { return q * units.Femto })
	return fmt.Sprintf("%gfF", q)
}

func cplStr(c units.CapacitancePerLength) string {
	// The parser computes (q fF) / (1 um) with two separate roundings.
	q := exactQuot(float64(c), units.Femto/units.Micro,
		func(q float64) float64 { return (q * units.Femto) / units.Micro })
	return fmt.Sprintf("%gfF/um", q)
}

func voltStr(v units.Voltage) string { return fmt.Sprintf("%gV", float64(v)) }

func freqStr(f units.Frequency) string {
	q := exactQuot(float64(f), units.Mega, func(q float64) float64 { return q * units.Mega })
	return fmt.Sprintf("%gMHz", q)
}

func rateStr(r units.DataRate) string {
	q := exactQuot(float64(r), units.Mega, func(q float64) float64 { return q * units.Mega })
	return fmt.Sprintf("%gMbps", q)
}

func durStr(d units.Duration) string {
	q := exactQuot(float64(d), units.Nano, func(q float64) float64 { return q * units.Nano })
	return fmt.Sprintf("%gns", q)
}
