package desc

import (
	"reflect"
	"testing"
)

// mutateAll changes every mutable part reachable from d: each block name,
// each map entry, each Signals element and the BlockRef it points to,
// each LogicBlocks element, and it appends to every ActiveDuring list and
// to the pattern loop.
func mutateAll(d *Description) {
	fp := &d.Floorplan
	for i := range fp.HorizontalBlocks {
		fp.HorizontalBlocks[i] += "h"
	}
	for i := range fp.VerticalBlocks {
		fp.VerticalBlocks[i] += "v"
	}
	for k, v := range fp.BlockWidth {
		fp.BlockWidth[k] = 2 * v
	}
	for k, v := range fp.BlockHeight {
		fp.BlockHeight[k] = 3 * v
	}
	for i := range d.Signals {
		s := &d.Signals[i]
		s.Name += "x"
		s.Toggle += 1
		for j, r := range []*BlockRef{s.Inside, s.Start, s.End} {
			if r != nil {
				r.X += 10 + j
				r.Y += 20 + j
			}
		}
	}
	for i := range d.LogicBlocks {
		b := &d.LogicBlocks[i]
		b.Name += "x"
		b.Gates++
		b.ActiveDuring = append(b.ActiveDuring, OpRefresh, OpNop)
	}
	d.Pattern.Loop = append(d.Pattern.Loop, OpRefresh, OpNop)
}

// TestCloneSharesNothing mutates every mutable part of a clone and then
// of a source: the other side must keep its Format text and compare
// reflect.DeepEqual to an untouched sample, and the mutated side must
// equal a sample given the same mutations. Format alone cannot see
// aliasing, and the second check catches a list whose append overwrites
// its neighbour in a shared backing array.
func TestCloneSharesNothing(t *testing.T) {
	fresh := Sample1GbDDR3()
	text := Format(fresh)
	mutated := Sample1GbDDR3()
	mutateAll(mutated)
	if reflect.DeepEqual(mutated, fresh) {
		t.Fatal("mutateAll changed nothing")
	}
	if !reflect.DeepEqual(fresh.Clone(), fresh) {
		t.Fatal("an untouched clone differs from its source")
	}

	check := func(dir string, kept, changed *Description) {
		t.Helper()
		if Format(kept) != text {
			t.Errorf("%s: the untouched side's Format changed", dir)
		}
		if !reflect.DeepEqual(kept, fresh) {
			t.Errorf("%s: the untouched side changed", dir)
		}
		if !reflect.DeepEqual(changed, mutated) {
			t.Errorf("%s: the mutated side differs from a mutated sample", dir)
		}
	}

	src := Sample1GbDDR3()
	c := src.Clone()
	mutateAll(c)
	check("mutated clone", src, c)

	src = Sample1GbDDR3()
	c = src.Clone()
	mutateAll(src)
	check("mutated source", c, src)
}

// TestCloneAllocs pins the allocations of a deep copy of the sample: the
// description, the two block-name lists, the two maps, the segments with
// one slice for all their BlockRefs, and the logic blocks with one slice
// for their ActiveDuring lists and the pattern loop.
func TestCloneAllocs(t *testing.T) {
	d := Sample1GbDDR3()
	allocs := testing.AllocsPerRun(100, func() { _ = d.Clone() })
	if allocs > 15 {
		t.Errorf("Clone allocated %.0f times, want <= 15", allocs)
	}
}

// TestCloneIntoReusesStorage copies descriptions of different shapes
// into one value in turn: each copy must equal a fresh clone of its
// source, leave its source intact when mutated, and keep nothing of the
// description copied before it, no map entry included. A copy into a
// value that already holds the same shape allocates nothing.
func TestCloneIntoReusesStorage(t *testing.T) {
	var ds []*Description
	for _, name := range []string{"ddr5_16gb_x16_18nm", "sdr_128mb_x16_170nm", "ddr2_1gb_x16_75nm"} {
		d, err := ParseFile("../../testdata/" + name + ".dram")
		if err != nil {
			t.Fatal(err)
		}
		ds = append(ds, d)
	}
	empty := Sample1GbDDR3()
	empty.Signals, empty.LogicBlocks = nil, nil
	ds = append(ds, Sample1GbDDR3(), empty, ds[0], Sample1GbDDR3())

	var dst Description
	for i, src := range ds {
		text := Format(src)
		src.CloneInto(&dst)
		if !reflect.DeepEqual(&dst, src.Clone()) || !reflect.DeepEqual(&dst, src) {
			t.Fatalf("copy %d (%s) differs from a fresh clone of its source", i, src.Name)
		}
		mutateAll(&dst)
		if Format(src) != text {
			t.Fatalf("copy %d (%s): mutating the copy changed its source", i, src.Name)
		}
	}

	src := Sample1GbDDR3()
	src.CloneInto(&dst)
	if allocs := testing.AllocsPerRun(100, func() { src.CloneInto(&dst) }); allocs != 0 {
		t.Errorf("CloneInto a warm copy allocated %.0f times, want 0", allocs)
	}
}
