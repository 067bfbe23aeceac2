// Package ctl is the memory-controller front-end of the trace engine: it
// consumes an access trace (timestamped read/write requests against a
// flat physical address space) and schedules it into a legal DRAM
// command trace for trace.Simulator/Replayer. The paper's central result
// is that DRAM energy is dominated by how the device is used — row-hit
// rate, page policy, idle-state residency — and the controller is where
// all three are decided: the address mapper (this file) sets the row-hit
// and bank-parallelism structure, the page policy (ctl.go) decides when
// rows close, and the power-down policy decides the low-power residency.
// See DESIGN §12 for the scheduling determinism and legality argument.
package ctl

import (
	"fmt"
	"slices"
	"strings"

	"drampower/internal/core"
	"drampower/internal/desc"
)

// Field names a component of the physical address in an interleave spec.
type Field int

// The four address components, in the order their mnemonics appear in
// interleave specs.
const (
	FieldChannel Field = iota // "ch"
	FieldBank                 // "ba"
	FieldRow                  // "ro"
	FieldColumn               // "co"
	numFields
)

// fieldNames are the spec mnemonics, indexed by Field.
var fieldNames = [numFields]string{"ch", "ba", "ro", "co"}

// String returns the spec mnemonic of the field.
func (f Field) String() string {
	if f < 0 || f >= numFields {
		return "??"
	}
	return fieldNames[f]
}

// DefaultMap is the default interleave spec: row above bank above channel
// above column. Keeping the column bits lowest sends consecutive
// addresses through one open row (maximum spatial locality becomes
// maximum row-hit rate), and bank above channel spreads row conflicts
// across channels before banks.
const DefaultMap = "ro:ba:ch:co"

// Coord is a decomposed physical address.
type Coord struct {
	Channel int
	Bank    int
	Row     int
	Col     int
}

// Mapper translates flat physical addresses to (channel, bank, row,
// column) coordinates by bit interleave. A mapper is a pure bijection
// between [0, 2^AddressBits) and the coordinate space: Map followed by
// Unmap is the identity in both directions (pinned by the round-trip
// tests), so distinct addresses never collide on one coordinate tuple.
type Mapper struct {
	// order lists the fields from most to least significant, as written
	// in the spec string.
	order [numFields]Field
	bits  [numFields]int // width per field, indexed by Field
	spec  string
	// Map's precomputed extraction, indexed by Field: a field is
	// addr>>shift&mask. The widths may sum past 63 bits (4 fields of
	// desc.MaxAddrBits), so a shift is capped at 63, where a non-negative
	// address has no bits left, as the field consumed after them all
	// would find.
	shift [numFields]uint8
	mask  [numFields]uint64
	max   uint64 // the largest address: 2^width-1, or MaxInt64 past 63 bits
	width int    // the sum of the field widths
}

// ParseMap builds a mapper from an interleave spec string: the four field
// mnemonics ch, ba, ro, co joined by ':', most significant first (e.g.
// "ro:ba:ch:co"). Every field must appear exactly once; a field whose
// width is zero (one channel, one bank) still appears but consumes no
// address bits.
func ParseMap(spec string, chBits, baBits, roBits, coBits int) (*Mapper, error) {
	widths := [numFields]int{FieldChannel: chBits, FieldBank: baBits, FieldRow: roBits, FieldColumn: coBits}
	for f, w := range widths {
		if w < 0 || w > desc.MaxAddrBits {
			return nil, fmt.Errorf("ctl: %s width %d outside 0..%d", Field(f), w, desc.MaxAddrBits)
		}
	}
	parts := strings.Split(spec, ":")
	if len(parts) != int(numFields) {
		return nil, fmt.Errorf("ctl: bad address map %q (want 4 ':'-separated fields, e.g. %q)", spec, DefaultMap)
	}
	m := &Mapper{bits: widths, spec: spec}
	var seen [numFields]bool
	for i, p := range parts {
		f := Field(slices.Index(fieldNames[:], p))
		if f < 0 {
			return nil, fmt.Errorf("ctl: bad address map field %q (want ch, ba, ro or co)", p)
		}
		if seen[f] {
			return nil, fmt.Errorf("ctl: address map %q repeats field %q", spec, p)
		}
		seen[f] = true
		m.order[i] = f
	}
	shift := 0
	for i := numFields - 1; i >= 0; i-- {
		f := m.order[i]
		m.shift[f], m.mask[f] = uint8(min(shift, 63)), 1<<m.bits[f]-1
		shift += m.bits[f]
	}
	m.width, m.max = shift, 1<<min(shift, 63)-1
	return m, nil
}

// MapperFor derives a mapper for the model over the given channel count:
// bank and row widths come from the specification, the column width is
// the column address bits above the burst (one access moves one burst),
// and the channel width is log2(channels), which must be a power of two
// for a bit interleave to exist.
func MapperFor(m *core.Model, channels int, spec string) (*Mapper, error) {
	if channels < 1 {
		channels = 1
	}
	chBits := 0
	for 1<<uint(chBits) < channels {
		chBits++
	}
	if 1<<uint(chBits) != channels {
		return nil, fmt.Errorf("ctl: %d channels not a power of two (bit interleave needs one)", channels)
	}
	s := m.D.Spec
	// One access is one burst, so the in-burst column bits are not
	// addressable: a burst of length 8 covers 8 column addresses.
	burstBits := 0
	bl := s.BurstLength
	if bl <= 0 {
		bl = s.Prefetch()
	}
	for 1<<uint(burstBits+1) <= bl {
		burstBits++
	}
	coBits := s.ColAddrBits - burstBits
	if coBits < 0 {
		coBits = 0
	}
	return ParseMap(spec, chBits, s.BankAddrBits, s.RowAddrBits, coBits)
}

// AddressBits is the total width of the flat address space.
func (m *Mapper) AddressBits() int { return m.width }

// Spec returns the interleave spec the mapper was built from.
func (m *Mapper) Spec() string { return m.spec }

// Map decomposes a flat address. Addresses outside [0, 2^AddressBits)
// are rejected, so a trace that overruns the device is a scheduling
// error rather than a silent wrap.
func (m *Mapper) Map(addr int64) (Coord, error) {
	if uint64(addr) > m.max { // a negative address wraps above MaxInt64
		if addr < 0 {
			return Coord{}, fmt.Errorf("ctl: negative address %d", addr)
		}
		return Coord{}, fmt.Errorf("ctl: address %#x outside the %d-bit space", addr, m.AddressBits())
	}
	a := uint64(addr)
	// Each shift is at most 63 already; the & 63 tells the compiler so.
	return Coord{
		Channel: int(a >> (m.shift[FieldChannel] & 63) & m.mask[FieldChannel]),
		Bank:    int(a >> (m.shift[FieldBank] & 63) & m.mask[FieldBank]),
		Row:     int(a >> (m.shift[FieldRow] & 63) & m.mask[FieldRow]),
		Col:     int(a >> (m.shift[FieldColumn] & 63) & m.mask[FieldColumn]),
	}, nil
}

// Unmap recomposes the flat address of a coordinate, the exact inverse
// of Map. Coordinates outside their field width are rejected.
func (m *Mapper) Unmap(c Coord) (int64, error) {
	vals := [numFields]int{FieldChannel: c.Channel, FieldBank: c.Bank, FieldRow: c.Row, FieldColumn: c.Col}
	for f, v := range vals {
		if v < 0 || v >= 1<<uint(m.bits[f]) {
			return 0, fmt.Errorf("ctl: %s %d outside the %d-bit field", Field(f), v, m.bits[f])
		}
	}
	var addr int64
	for _, f := range m.order {
		addr = addr<<uint(m.bits[f]) | int64(vals[f])
	}
	return addr, nil
}
