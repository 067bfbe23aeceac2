package core_test

import (
	"os"
	"path/filepath"
	"slices"
	"testing"

	"drampower/internal/core"
	"drampower/internal/ctl"
	"drampower/internal/desc"
	"drampower/internal/schemes"
	"drampower/internal/sensitivity"
	"drampower/internal/trace"
)

// buildAllocBudget bounds the allocations of one Build on a warm placer
// pool: the model's storage, the grid extents, the item names (a list
// and a string), the segments, the ledger slab and the background items,
// plus the doublings of a ledger that outgrows its stack scratch.
const buildAllocBudget = 32

// FuzzDescriptorBuild builds every description the parser and Validate
// accept, seeded with the sample and the testdata devices. Build must
// not panic and must stay within buildAllocBudget allocations. A model it
// builds must replay two periods of its IDD7 loop clean and schedule a
// short access stream into a trace that replays clean. One registry knob
// and one scheme, picked by the input, built through core.Variant, must
// each equal Build of a Clone with the same change, or fail as it does.
func FuzzDescriptorBuild(f *testing.F) {
	f.Add(desc.Format(desc.Sample1GbDDR3()), uint8(0), uint8(0))
	files, err := filepath.Glob("../../testdata/*.dram")
	if err != nil {
		f.Fatal(err)
	}
	for i, file := range files {
		text, err := os.ReadFile(file)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(string(text), uint8(7*i+1), uint8(i+1))
	}
	knobs, all := sensitivity.Registry(), schemes.All()
	f.Fuzz(func(t *testing.T, text string, knob, scheme uint8) {
		d, err := desc.ParseString(text)
		if err != nil || d.Validate() != nil {
			return
		}
		var m *core.Model
		allocs := testing.AllocsPerRun(1, func() { m, err = core.Build(d) })
		if err != nil {
			return
		}
		if allocs > buildAllocBudget {
			t.Fatalf("Build allocated %.0f times, want <= %d", allocs, buildAllocBudget)
		}
		replayIDD7(t, m)
		schedule(t, m)

		p := knobs[int(knob)%len(knobs)]
		factor := 1 - sensitivity.Variation
		if knob >= 128 {
			factor = 1 + sensitivity.Variation
		}
		s := all[int(scheme)%len(all)]
		for _, c := range []struct {
			name  string
			apply func(*desc.Description)
		}{
			{p.Name, func(d *desc.Description) { p.Apply(d, factor) }},
			{s.Name, s.Apply},
		} {
			want := d.Clone()
			c.apply(want)
			fresh, ferr := core.Build(want)
			verr := core.Variant(d, nil, c.apply, func(m *core.Model) error {
				if diff := modelDiff(m, fresh); diff != "" {
					t.Fatalf("%s: the variant differs from a fresh build in %s", c.name, diff)
				}
				return nil
			})
			if (ferr == nil) != (verr == nil) || ferr != nil && ferr.Error() != verr.Error() {
				t.Fatalf("%s: the variant fails with %v, a fresh build with %v", c.name, verr, ferr)
			}
		}
	})
}

// replayIDD7 replays two periods of m's IDD7 loop.
func replayIDD7(t *testing.T, m *core.Model) {
	t.Helper()
	var loop []trace.Command
	period := m.PlaceIDD7(0.5, func(slot int64, op desc.Op, bank int) {
		loop = append(loop, trace.Command{Slot: slot, Op: op, Bank: bank})
	})
	cmds := slices.Clone(loop)
	for _, c := range loop {
		c.Slot += period
		cmds = append(cmds, c)
	}
	slices.SortStableFunc(cmds, func(a, b trace.Command) int { return int(a.Slot - b.Slot) })
	if err := trace.New(m).Run(cmds); err != nil {
		t.Fatalf("the IDD7 loop (period %d) is rejected: %v", period, err)
	}
}

// schedule schedules 64 accesses on m with the default controller and
// replays the commands.
func schedule(t *testing.T, m *core.Model) {
	t.Helper()
	reqs, err := ctl.GenerateAccesses(m, ctl.GenOptions{N: 64, RowHit: 0.5, ReadShare: 0.7, Gap: 4, Seed: 1})
	if err != nil {
		return
	}
	cmds, _, err := ctl.ScheduleRequests(m, reqs, ctl.Options{Workers: 1})
	if err != nil {
		return
	}
	rep := trace.NewReplayer(m, trace.ReplayOptions{Workers: 1})
	if err := rep.ReplaySource(trace.NewSliceSource(cmds)); err != nil {
		t.Fatalf("the scheduled trace is rejected: %v", err)
	}
}
