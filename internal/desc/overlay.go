package desc

import (
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"strconv"
	"strings"

	"drampower/internal/units"
)

// Overlay is a calibration document: an ordered list of overrides and
// scalings applied to the derived parameter set of a model (core.ParamSet)
// after the circuit derivation and before the model is sealed. It is the
// middle stage of the derive → overlay → seal pipeline, closing the gap
// between analytically derived values and measured ones ("What Your DRAM
// Power Models Are Not Telling You", Ghose et al., 2018).
//
// The input language mirrors the description grammar (same lexer, same
// comment and spacing rules):
//
//	Calibration micron-mt41k-measured   # optional header with a name
//	idd0 = 58mA                         # override a derived value
//	op.rd.energy *= 1.07                # scale a derived value
//
// Entries apply in order; later entries see the result of earlier ones.
// An overlay never feeds back into the circuit model: overriding idd0
// does not change op.act.energy — each key pins exactly one resolved
// parameter. An empty overlay (no entries) is a strict no-op.
type Overlay struct {
	// Name is the optional label from the Calibration header (e.g. the
	// measurement campaign or vendor part the values came from).
	Name string
	// Entries are the overrides/scalings in input order.
	Entries []OverlayEntry
}

// OverlayEntry is one calibration line.
type OverlayEntry struct {
	// Key is the canonical parameter key (see OverlayKeys).
	Key string
	// Scale selects the "key *= factor" form; false is "key = value".
	Scale bool
	// Value is the SI value (amperes, watts, joules) for an override, or
	// the dimensionless factor for a scaling.
	Value float64
}

// Empty reports whether the overlay changes nothing. A nil overlay and an
// overlay with no entries are both empty (the name alone has no effect on
// the model), which is what lets cache keys collapse no-op calibrations
// onto the uncalibrated entry.
func (o *Overlay) Empty() bool { return o == nil || len(o.Entries) == 0 }

// overlayClass is the quantity class of an overlay key, fixing the unit
// of override values and the canonical rendering.
type overlayClass int

const (
	overlayCurrent overlayClass = iota // amperes ("58mA")
	overlayPower                       // watts ("45mW")
	overlayEnergy                      // joules ("2.4nJ")
)

// overlayKeyClasses maps every valid overlay key to its quantity class.
//
// The idd2n/idd3n/idd2p/idd6 keys are current-valued views of the three
// background powers (standby, power-down, self-refresh): an override sets
// the underlying power to I × Vdd, a scaling scales it. The core package
// interprets the keys; this table only fixes grammar and units.
func overlayKeyClasses() map[string]overlayClass {
	m := map[string]overlayClass{
		"idd0": overlayCurrent, "idd2n": overlayCurrent, "idd2p": overlayCurrent,
		"idd3n": overlayCurrent, "idd4r": overlayCurrent, "idd4w": overlayCurrent,
		"idd5": overlayCurrent, "idd6": overlayCurrent, "idd7": overlayCurrent,
		"standby": overlayPower, "powerdown": overlayPower, "selfrefresh": overlayPower,
	}
	for _, op := range AllOps {
		if op == OpNop {
			// A nop carries no command charge by construction; there is
			// nothing measured to calibrate against.
			continue
		}
		m["op."+op.String()+".energy"] = overlayEnergy
	}
	return m
}

// OverlayKeys returns every valid calibration key in sorted order (for
// documentation and error messages).
func OverlayKeys() []string {
	classes := overlayKeyClasses()
	keys := make([]string, 0, len(classes))
	for k := range classes {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// ParseOverlayFile reads and parses a calibration overlay file.
func ParseOverlayFile(path string) (*Overlay, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("desc: %v", err)
	}
	defer f.Close()
	ov, err := ParseOverlay(f)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return ov, nil
}

// ParseOverlayString parses a calibration overlay from a string.
func ParseOverlayString(src string) (*Overlay, error) {
	return ParseOverlay(strings.NewReader(src))
}

// ParseOverlay reads a calibration overlay document. The Calibration
// header is optional for a standalone overlay (it is what splits a
// combined descriptor+overlay document, see ParseDocument); when present
// it must come first and may carry a name.
func ParseOverlay(r io.Reader) (*Overlay, error) {
	lines, err := lex(r)
	if err != nil {
		return nil, err
	}
	return parseOverlayLines(lines)
}

func parseOverlayLines(lines []line) (*Overlay, error) {
	ov := &Overlay{}
	for i, ln := range lines {
		head := ln.fields[0]
		if head.bare() && head.value == "Calibration" {
			if i != 0 {
				return nil, errAtField(ln.num, head, "Calibration header must be the first directive")
			}
			parts := make([]string, 0, len(ln.fields)-1)
			for _, f := range ln.fields[1:] {
				if !f.bare() || strings.Contains(f.value, "=") {
					return nil, errAtField(ln.num, f, "Calibration name takes bare words, got %q", f.text())
				}
				parts = append(parts, f.value)
			}
			ov.Name = strings.Join(parts, " ")
			continue
		}
		ent, err := parseOverlayEntry(ln)
		if err != nil {
			return nil, err
		}
		ov.Entries = append(ov.Entries, ent)
	}
	return ov, nil
}

// parseOverlayEntry decodes one calibration line. After the lexer's '='
// normalization the two forms arrive as:
//
//	"idd0 = 58mA"          -> [{key: "idd0", value: "58mA"}]
//	"op.rd.energy *= 1.07" -> [{bare "op.rd.energy"}, {key: "*", value: "1.07"}]
//	"op.rd.energy*=1.07"   -> [{key: "op.rd.energy*", value: "1.07"}]
func parseOverlayEntry(ln line) (OverlayEntry, error) {
	var key, val string
	var scale bool
	f0 := ln.fields[0]
	switch {
	case len(ln.fields) == 1 && !f0.bare() && strings.HasSuffix(f0.key, "*") && len(f0.key) > 1:
		key, val, scale = strings.TrimSuffix(f0.key, "*"), f0.value, true
	case len(ln.fields) == 1 && !f0.bare() && f0.key != "*":
		key, val = f0.key, f0.value
	case len(ln.fields) == 2 && f0.bare() && ln.fields[1].key == "*":
		key, val, scale = f0.value, ln.fields[1].value, true
	default:
		return OverlayEntry{}, errAtField(ln.num, f0,
			"calibration entries are '<key> = <value>' or '<key> *= <factor>' lines")
	}

	class, ok := overlayKeyClasses()[key]
	if !ok {
		return OverlayEntry{}, errAtField(ln.num, f0, "unknown calibration key %q", key)
	}

	ent := OverlayEntry{Key: key, Scale: scale}
	if scale {
		x, err := strconv.ParseFloat(val, 64)
		if err != nil || math.IsNaN(x) || math.IsInf(x, 0) || x <= 0 {
			return OverlayEntry{}, errAt(ln.num, 0, "calibration %s: bad scale factor %q (want a positive number)", key, val)
		}
		ent.Value = x
		return ent, nil
	}
	var v float64
	var err error
	switch class {
	case overlayCurrent:
		var c units.Current
		c, err = units.ParseCurrent(val)
		v = float64(c)
	case overlayPower:
		var p units.Power
		p, err = units.ParsePower(val)
		v = float64(p)
	default:
		var e units.Energy
		e, err = units.ParseEnergy(val)
		v = float64(e)
	}
	if err != nil {
		return OverlayEntry{}, errAt(ln.num, 0, "calibration %s: %v", key, err)
	}
	if math.IsNaN(v) || math.IsInf(v, 0) || v < 0 {
		return OverlayEntry{}, errAt(ln.num, 0, "calibration %s: value %q must be finite and non-negative", key, val)
	}
	ent.Value = v
	return ent, nil
}

// FormatOverlay renders the overlay in the input language such that
// ParseOverlay(FormatOverlay(o)) reproduces o and the rendering is a
// bit-exact fixed point (the same contract Format has for descriptions).
// The canonical form always starts with the Calibration header; override
// values render in milliamps, milliwatts and nanojoules with the same
// ulp-nudged exact quotients the description serializer uses.
func FormatOverlay(o *Overlay) string {
	if o == nil {
		o = &Overlay{}
	}
	var b strings.Builder
	b.WriteString("Calibration")
	if o.Name != "" {
		b.WriteByte(' ')
		b.WriteString(o.Name)
	}
	b.WriteByte('\n')
	for _, e := range o.Entries {
		if e.Scale {
			fmt.Fprintf(&b, "%s *= %g\n", e.Key, e.Value)
			continue
		}
		fmt.Fprintf(&b, "%s = %s\n", e.Key, overlayValueStr(e.Key, e.Value))
	}
	return b.String()
}

func overlayValueStr(key string, v float64) string {
	// Values large enough to overflow the scaled quotient (v/1e-3 above
	// the float64 range) fall back to the base unit, whose plain %g
	// rendering round-trips exactly through strconv.
	switch overlayKeyClasses()[key] {
	case overlayCurrent:
		q := exactQuot(v, units.Milli, func(q float64) float64 { return q * units.Milli })
		if math.IsInf(q, 0) {
			return fmt.Sprintf("%gA", v)
		}
		return fmt.Sprintf("%gmA", q)
	case overlayPower:
		q := exactQuot(v, units.Milli, func(q float64) float64 { return q * units.Milli })
		if math.IsInf(q, 0) {
			return fmt.Sprintf("%gW", v)
		}
		return fmt.Sprintf("%gmW", q)
	default:
		q := exactQuot(v, units.Nano, func(q float64) float64 { return q * units.Nano })
		if math.IsInf(q, 0) {
			return fmt.Sprintf("%gJ", v)
		}
		return fmt.Sprintf("%gnJ", q)
	}
}

// ParseDocument reads a combined document: a description optionally
// followed by a calibration overlay introduced by a bare "Calibration"
// header line (the transport the HTTP endpoints use, so one request body
// carries both). The returned description is nil when no description
// lines precede the overlay (a calibration-only or empty document);
// the overlay is nil when the document has no Calibration section.
func ParseDocument(r io.Reader) (*Description, *Overlay, error) {
	lines, err := lex(r)
	if err != nil {
		return nil, nil, err
	}
	split := -1
	for i, ln := range lines {
		if ln.fields[0].bare() && ln.fields[0].value == "Calibration" {
			split = i
			break
		}
	}
	if split < 0 {
		if len(lines) == 0 {
			return nil, nil, nil
		}
		d, err := parseLines(lines)
		return d, nil, err
	}
	var d *Description
	if split > 0 {
		if d, err = parseLines(lines[:split]); err != nil {
			return nil, nil, err
		}
	}
	ov, err := parseOverlayLines(lines[split:])
	if err != nil {
		return nil, nil, err
	}
	return d, ov, nil
}
