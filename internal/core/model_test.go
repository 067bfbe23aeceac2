package core

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"drampower/internal/desc"
	"drampower/internal/units"
)

func build(t *testing.T) *Model {
	t.Helper()
	m, err := Build(desc.Sample1GbDDR3())
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestBuildValidates(t *testing.T) {
	d := desc.Sample1GbDDR3()
	d.Spec.IOWidth = 0
	if _, err := Build(d); err == nil {
		t.Error("Build should reject an invalid description")
	}
}

// TestBankAddrBitsBound: descriptions up to desc.MaxBankAddrBits bank bits
// and desc.MaxAddrBits row and column bits validate and build; wider ones
// are rejected by name and bound before the field can size anything.
func TestBankAddrBitsBound(t *testing.T) {
	for _, tc := range []struct {
		field string
		bits  int
	}{
		{"bankadd", desc.MaxBankAddrBits}, {"bankadd", 9}, {"bankadd", 25}, {"bankadd", 63},
		{"rowadd", desc.MaxAddrBits}, {"rowadd", 31}, {"rowadd", 63}, {"rowadd", 64},
		{"coladd", desc.MaxAddrBits}, {"coladd", 31}, {"coladd", 63},
	} {
		d := desc.Sample1GbDDR3()
		bound := desc.MaxAddrBits
		switch tc.field {
		case "bankadd":
			d.Spec.BankAddrBits, bound = tc.bits, desc.MaxBankAddrBits
		case "rowadd":
			d.Spec.RowAddrBits = tc.bits
		case "coladd":
			d.Spec.ColAddrBits = tc.bits
		}
		_, err := Build(d)
		if tc.bits <= bound {
			if err != nil {
				t.Errorf("%s=%d: %v", tc.field, tc.bits, err)
			}
			continue
		}
		if err == nil {
			t.Errorf("%s=%d built, want a validation error", tc.field, tc.bits)
			continue
		}
		for _, want := range []string{fmt.Sprintf("%s=%d", tc.field, tc.bits), fmt.Sprintf("bound of %d", bound)} {
			if !strings.Contains(err.Error(), want) {
				t.Errorf("%s=%d: error %q does not contain %q", tc.field, tc.bits, err, want)
			}
		}
	}
}

// TestTimingSlotsBound: every duration the timing rules convert, and a
// burst's data-bus slots, build up to their bound in control-clock slots
// and are rejected by name and bound one slot beyond it, before they can
// size the IDD loops. The last row is the sample with tRC = tRFC = 10 ms,
// 8,000,000 slots, which built in 144 ms without the bound.
func TestTimingSlotsBound(t *testing.T) {
	field := func(s *desc.Specification, key string) *units.Duration {
		return map[string]*units.Duration{
			"tRC": &s.RowCycle, "tRCD": &s.RowToColumnDelay, "tRP": &s.PrechargeTime,
			"tRRD": &s.RowToRowDelay, "tFAW": &s.FourBankWindow, "tRFC": &s.RefreshCycle,
			"tREFI": &s.RefreshInterval,
		}[key]
	}
	type row struct {
		key   string
		slots float64
		bound float64
	}
	var rows []row
	for _, key := range []string{"tRC", "tRCD", "tRP", "tRRD", "tFAW", "tRFC"} {
		rows = append(rows, row{key, desc.MaxTimingSlots, desc.MaxTimingSlots},
			row{key, desc.MaxTimingSlots + 1, desc.MaxTimingSlots})
	}
	rows = append(rows,
		row{"tREFI", desc.MaxRefreshIntervalSlots, desc.MaxRefreshIntervalSlots},
		row{"tREFI", desc.MaxRefreshIntervalSlots + 1, desc.MaxRefreshIntervalSlots},
		row{"burst", desc.MaxTimingSlots, desc.MaxTimingSlots},
		row{"burst", desc.MaxTimingSlots + 1, desc.MaxTimingSlots},
		row{"tRC", 8e6, desc.MaxTimingSlots})
	for _, tc := range rows {
		d := desc.Sample1GbDDR3()
		s := &d.Spec
		if tc.key == "burst" {
			// Two data bits per pin per control-clock slot.
			s.BurstLength = int(2*tc.slots) - 1
		} else {
			*field(s, tc.key) = units.Duration(tc.slots / float64(s.ControlClock))
		}
		if tc.slots == 8e6 {
			s.RefreshCycle = s.RowCycle
		}
		_, err := Build(d)
		if tc.slots <= tc.bound {
			if err != nil {
				t.Errorf("%s at %.0f slots: %v", tc.key, tc.slots, err)
			}
			continue
		}
		if err == nil {
			t.Errorf("%s at %.0f slots built, want a validation error", tc.key, tc.slots)
			continue
		}
		for _, want := range []string{tc.key, fmt.Sprintf("bound of %.0f control-clock slots (%.0f slots)", tc.bound, tc.slots)} {
			if !strings.Contains(err.Error(), want) {
				t.Errorf("%s at %.0f slots: error %q does not contain %q", tc.key, tc.slots, err, want)
			}
		}
	}
}

func TestSegmentResolution(t *testing.T) {
	m := build(t)
	byName := map[string]ResolvedSegment{}
	for _, rs := range m.Segments {
		byName[rs.Name] = rs
	}

	// DataW0 sits before its own 1:8 mux: pad width of 16 wires.
	if got := byName["DataW0"].Wires; got != 16 {
		t.Errorf("DataW0 wires: got %d, want 16", got)
	}
	// DataW1..3 are downstream of the deserializer: 128 wires.
	for _, n := range []string{"DataW1", "DataW2", "DataW3"} {
		if got := byName[n].Wires; got != 128 {
			t.Errorf("%s wires: got %d, want 128", n, got)
		}
	}
	// The read path mux (serializer) sits at the pad end (DataR3), so the
	// array-side read segments are still at pad width — the widening
	// applies downstream of the mux segment in bus order. DataR0..2 come
	// before DataR3 in the list, so they are 16 wide. This mirrors how the
	// description orders read segments array->pad.
	if got := byName["DataR0"].Wires; got != 16 {
		t.Errorf("DataR0 wires: got %d, want 16", got)
	}
	if got := byName["AddrRow0"].Wires; got != 13 {
		t.Errorf("AddrRow0 wires: got %d, want 13", got)
	}
	if got := byName["AddrCol0"].Wires; got != 10 {
		t.Errorf("AddrCol0 wires: got %d, want 10", got)
	}
	if got := byName["AddrBank0"].Wires; got != 3 {
		t.Errorf("AddrBank0 wires: got %d, want 3", got)
	}
	if got := byName["Clk0"].Wires; got != 2 {
		t.Errorf("Clk0 wires: got %d, want 2", got)
	}
	if got := byName["Ctrl0"].Wires; got != 8 {
		t.Errorf("Ctrl0 wires: got %d, want 8", got)
	}

	// Toggle defaults resolved.
	if got := byName["Clk0"].Toggle; got != 1.0 {
		t.Errorf("Clk0 toggle: got %g, want 1.0", got)
	}
	if got := byName["DataW1"].Toggle; got != 0.25 {
		t.Errorf("DataW1 toggle: got %g, want 0.25", got)
	}

	// Wire capacitance: length × specific cap; buffer load positive.
	rs := byName["DataW1"]
	wantCap := float64(rs.Length) * float64(m.D.Technology.WireCapSignal)
	if math.Abs(float64(rs.WireCap)-wantCap) > 1e-9*wantCap {
		t.Errorf("DataW1 wire cap: got %v", rs.WireCap)
	}
	if rs.BufCap <= 0 {
		t.Errorf("DataW1 buffer cap: got %v", rs.BufCap)
	}
	if rs.TotalCapPerWire() != rs.WireCap+rs.BufCap {
		t.Error("TotalCapPerWire mismatch")
	}
}

func TestSegmentWiresOverride(t *testing.T) {
	d := desc.Sample1GbDDR3()
	d.Signals[0].Wires = 99
	m, err := Build(d)
	if err != nil {
		t.Fatal(err)
	}
	if got := m.Segments[0].Wires; got != 99 {
		t.Errorf("override wires: got %d, want 99", got)
	}
}

func TestBitsPerBurstAndSlots(t *testing.T) {
	m := build(t)
	if got := m.BitsPerBurst(); got != 128 {
		t.Errorf("bits per burst: got %d, want 128 (16 DQ x BL8)", got)
	}
	// 8 bits per pin at 2 bits per control cycle per pin (1.6G / 800M) = 4.
	if got := m.BurstSlots(); got != 4 {
		t.Errorf("burst slots: got %d, want 4", got)
	}
}

func TestBurstSlotsFallbacks(t *testing.T) {
	d := desc.Sample1GbDDR3()
	d.Spec.BurstLength = 0 // fall back to prefetch = datarate/controlclock = 2
	m, err := Build(d)
	if err != nil {
		t.Fatal(err)
	}
	if got := m.BurstSlots(); got != 1 {
		t.Errorf("burst slots with prefetch fallback: got %d, want 1", got)
	}
	if got := m.BitsPerBurst(); got != 32 {
		t.Errorf("bits per burst with prefetch fallback: got %d, want 32", got)
	}
}

func TestDensity(t *testing.T) {
	m := build(t)
	// 8 banks x 2^13 rows x 16384 page bits = 2^30 = 1 Gbit.
	if got := m.Density(); got != 1<<30 {
		t.Errorf("density: got %d, want %d", got, int64(1)<<30)
	}
}

func TestDieArea(t *testing.T) {
	m := build(t)
	mm2 := float64(m.DieArea()) / 1e-6
	// The sample is a ~35 mm² die (Section IV.C targets 40–60 mm² for the
	// trend devices; the 1 Gb sample sits just below).
	if mm2 < 25 || mm2 > 60 {
		t.Errorf("die area out of range: %g mm²", mm2)
	}
	if !strings.Contains(m.String(), "mm²") {
		t.Errorf("String() = %q", m.String())
	}
}

func TestArrayConsistency(t *testing.T) {
	m := build(t)
	// Page bits from the floorplan should match the specification-derived
	// page (2^coladdr × IO) within the stripe-quantization error.
	specPage := m.D.Spec.PageBits()
	geoPage := m.Array.PageBits
	ratio := float64(geoPage) / float64(specPage)
	if ratio < 0.9 || ratio > 1.1 {
		t.Errorf("floorplan page (%d) deviates from spec page (%d) by more than 10%%",
			geoPage, specPage)
	}
}
