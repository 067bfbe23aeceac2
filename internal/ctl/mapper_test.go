package ctl

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"drampower/internal/desc"

	"drampower/internal/core"
)

// specs lists every interleave order (all 24 permutations of the four
// fields) so the round-trip property is pinned for the whole supported
// space, not just the default.
func specs() []string {
	fields := []string{"ch", "ba", "ro", "co"}
	var out []string
	var rec func(cur []string, rest []string)
	rec = func(cur, rest []string) {
		if len(rest) == 0 {
			out = append(out, strings.Join(cur, ":"))
			return
		}
		for i := range rest {
			next := append(append([]string{}, rest[:i]...), rest[i+1:]...)
			rec(append(cur, rest[i]), next)
		}
	}
	rec(nil, fields)
	return out
}

// TestMapperRoundTrip is the satellite pin: for each supported
// interleave spec, map→unmap over random addresses is the identity, and
// distinct addresses never collide on one coordinate tuple.
func TestMapperRoundTrip(t *testing.T) {
	m, err := core.Build(desc.Sample1GbDDR3())
	if err != nil {
		t.Fatal(err)
	}
	for _, spec := range specs() {
		for _, channels := range []int{1, 2, 4} {
			mp, err := MapperFor(m, channels, spec)
			if err != nil {
				t.Fatalf("%s/%dch: %v", spec, channels, err)
			}
			limit := int64(1) << uint(mp.AddressBits())
			seen := make(map[Coord]int64)
			rng := uint64(0xfeed)
			for i := 0; i < 4096; i++ {
				addr := int64(splitmix64(&rng) % uint64(limit))
				co, err := mp.Map(addr)
				if err != nil {
					t.Fatalf("%s/%dch: Map(%#x): %v", spec, channels, addr, err)
				}
				if co.Channel >= channels {
					t.Fatalf("%s/%dch: Map(%#x) channel %d out of range", spec, channels, addr, co.Channel)
				}
				back, err := mp.Unmap(co)
				if err != nil {
					t.Fatalf("%s/%dch: Unmap(%+v): %v", spec, channels, co, err)
				}
				if back != addr {
					t.Fatalf("%s/%dch: %#x -> %+v -> %#x not the identity", spec, channels, addr, co, back)
				}
				if prev, dup := seen[co]; dup && prev != addr {
					t.Fatalf("%s/%dch: addresses %#x and %#x collide on %+v", spec, channels, prev, addr, co)
				}
				seen[co] = addr
			}
		}
	}
}

// TestMapperExhaustiveSmall walks an entire small address space: the map
// must be a bijection (every coordinate tuple hit exactly once).
func TestMapperExhaustiveSmall(t *testing.T) {
	mp, err := ParseMap("co:ro:ba:ch", 1, 2, 3, 2)
	if err != nil {
		t.Fatal(err)
	}
	n := int64(1) << uint(mp.AddressBits())
	if n != 256 {
		t.Fatalf("address bits: got %d values, want 256", n)
	}
	seen := make(map[Coord]bool, n)
	for addr := int64(0); addr < n; addr++ {
		co, err := mp.Map(addr)
		if err != nil {
			t.Fatal(err)
		}
		if seen[co] {
			t.Fatalf("coordinate %+v hit twice", co)
		}
		seen[co] = true
		back, err := mp.Unmap(co)
		if err != nil || back != addr {
			t.Fatalf("round trip %#x -> %+v -> %#x (%v)", addr, co, back, err)
		}
	}
	if int64(len(seen)) != n {
		t.Fatalf("bijection covered %d of %d tuples", len(seen), n)
	}
}

func TestMapperErrors(t *testing.T) {
	mp, err := ParseMap(DefaultMap, 1, 3, 13, 7)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := mp.Map(-1); err == nil {
		t.Error("negative address accepted")
	}
	if _, err := mp.Map(1 << uint(mp.AddressBits())); err == nil {
		t.Error("address above the space accepted")
	}
	if _, err := mp.Unmap(Coord{Row: 1 << 13}); err == nil {
		t.Error("row outside field accepted")
	}
	if _, err := mp.Unmap(Coord{Channel: 2}); err == nil {
		t.Error("channel outside the 1-bit field accepted")
	}
	for _, bad := range []string{"", "ro", "ro:ba:ch", "ro:ba:ch:co:xx", "ro:ro:ch:co", "ro:bank:ch:co"} {
		if _, err := ParseMap(bad, 1, 3, 13, 7); err == nil {
			t.Errorf("ParseMap(%q) accepted", bad)
		}
	}
	if _, err := ParseMap(DefaultMap, -1, 3, 13, 7); err == nil {
		t.Error("negative width accepted")
	}
	if _, err := ParseMap(DefaultMap, 31, 3, 13, 7); err == nil {
		t.Error("31-bit width accepted")
	}
}

// refMap is the field-by-field loop Map ran before its shifts and masks
// were precomputed, kept as the reference: fields are consumed least
// significant first, each taking its width off the rest.
func refMap(order [numFields]Field, bits [numFields]int, addr int64) (Coord, error) {
	if addr < 0 {
		return Coord{}, fmt.Errorf("ctl: negative address %d", addr)
	}
	rest := addr
	var vals [numFields]int
	total := 0
	for i := int(numFields) - 1; i >= 0; i-- {
		f := order[i]
		w := uint(bits[f])
		vals[f] = int(rest & (1<<w - 1))
		rest >>= w
		total += bits[f]
	}
	if rest != 0 {
		return Coord{}, fmt.Errorf("ctl: address %#x outside the %d-bit space", addr, total)
	}
	return Coord{Channel: vals[FieldChannel], Bank: vals[FieldBank], Row: vals[FieldRow], Col: vals[FieldColumn]}, nil
}

// TestMapMatchesReference checks Map against refMap over every field order
// and every assignment of the widths {0, 1, 13, 30} to the four fields,
// whose sums run from 0 to 120 bits, past the 63 an address holds: the
// coordinates and the error texts must be the reference's, at the edges
// of the space, just past them, at the int64 extremes and at random
// addresses.
func TestMapMatchesReference(t *testing.T) {
	widths := []int{0, 1, 13, 30}
	rng := uint64(0x5eed)
	for _, spec := range specs() {
		var order [numFields]Field
		for i, p := range strings.Split(spec, ":") {
			order[i] = map[string]Field{"ch": FieldChannel, "ba": FieldBank, "ro": FieldRow, "co": FieldColumn}[p]
		}
		for k := 0; k < 256; k++ {
			bits := [numFields]int{widths[k&3], widths[k>>2&3], widths[k>>4&3], widths[k>>6&3]}
			mp, err := ParseMap(spec, bits[FieldChannel], bits[FieldBank], bits[FieldRow], bits[FieldColumn])
			if err != nil {
				t.Fatalf("%s %v: %v", spec, bits, err)
			}
			total := mp.AddressBits()
			addrs := []int64{0, 1, -1, math.MinInt64, math.MaxInt64, math.MaxInt64 - 1}
			if total < 63 {
				top := int64(1) << total
				addrs = append(addrs, top-1, top, top+1, top<<1-1)
			}
			for j := 0; j < 8; j++ {
				r := int64(splitmix64(&rng) >> 1)
				addrs = append(addrs, r, r>>(r&63), -r)
			}
			for _, addr := range addrs {
				got, gotErr := mp.Map(addr)
				want, wantErr := refMap(order, bits, addr)
				if got != want || fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
					t.Fatalf("%s %v: Map(%#x) = %+v, %v; the reference gives %+v, %v", spec, bits, addr, got, gotErr, want, wantErr)
				}
			}
		}
	}
}

func TestMapperForBurstColumns(t *testing.T) {
	m, err := core.Build(desc.Sample1GbDDR3())
	if err != nil {
		t.Fatal(err)
	}
	mp, err := MapperFor(m, 1, DefaultMap)
	if err != nil {
		t.Fatal(err)
	}
	// 1Gb x16 DDR3: 13 row bits, 3 bank bits, 10 column bits minus 3
	// burst bits (BL8) = 7 column bits, 0 channel bits -> 23 total.
	if got := mp.AddressBits(); got != 23 {
		t.Fatalf("AddressBits: got %d, want 23", got)
	}
	if _, err := MapperFor(m, 3, DefaultMap); err == nil {
		t.Fatal("3 channels accepted")
	}
	if mp.Spec() != DefaultMap {
		t.Fatalf("Spec: got %q", mp.Spec())
	}
}
