package ctl

import (
	"reflect"
	"strings"
	"testing"

	"drampower/internal/timing"
	"drampower/internal/trace"
)

// TestScheduledTraceLegalitySweep is the retention acceptance pin: every
// policy × address map × channel count × low-power combination schedules
// a trace that replays with zero timing violations AND zero missed tREFI
// deadlines, and long traces actually carry refreshes. This is the sweep
// `make legality` (and CI) runs on its own.
func TestScheduledTraceLegalitySweep(t *testing.T) {
	m := model(t)
	tREFI := timing.For(m.D.Spec).REFI
	if tREFI <= 0 {
		t.Fatal("sample spec lost its refresh interval")
	}
	policies := []struct {
		name string
		opts Options
	}{
		{"open", Options{Policy: PolicyOpen}},
		{"closed", Options{Policy: PolicyClosed}},
		{"timeout", Options{Policy: PolicyTimeout, PageTimeout: 64}},
	}
	lowPower := []struct {
		name string
		pd   int64
		sr   int64
	}{
		{"none", 0, 0},
		{"pd", 24, 0},
		{"pd-sr", 24, 400},
	}
	maps := []string{DefaultMap, "ch:ro:ba:co", "ba:ro:ch:co"}
	for _, pol := range policies {
		for _, lp := range lowPower {
			for _, mapSpec := range maps {
				for _, channels := range []int{1, 2} {
					name := pol.name + "/" + lp.name + "/" + strings.ReplaceAll(mapSpec, ":", "") + "/"
					if channels > 1 {
						name += "2ch"
					} else {
						name += "1ch"
					}
					t.Run(name, func(t *testing.T) {
						opts := pol.opts
						opts.PowerDownAfter = lp.pd
						opts.SelfRefreshAfter = lp.sr
						opts.Map = mapSpec
						opts.Channels = channels
						// gap 120 over 600 requests spans ~72k slots per
						// channel: a dozen tREFI obligations each.
						gen := genOpts(600, 0.5, 120)
						gen.Channels = channels
						reqs, err := GenerateAccesses(m, gen)
						if err != nil {
							t.Fatal(err)
						}
						cmds, stats := schedule(t, m, reqs, opts)
						res := replayAll(t, m, cmds, channels, m.D.Spec.Banks())
						if res.MissedRefreshDeadlines != 0 {
							t.Fatalf("replay reports %d missed tREFI deadlines", res.MissedRefreshDeadlines)
						}
						// The fused streaming pipeline (sharded scheduling
						// feeding a replayer sink directly, Workers: 4) must
						// reproduce the two-phase stats and energy result
						// bit-for-bit across this whole sweep.
						fopts := opts
						fopts.Workers = 4
						fstats, fres := fusedReplay(t, m, reqs, fopts, 4)
						if fstats != stats {
							t.Fatalf("fused stats differ:\nfused     %+v\ntwo-phase %+v", fstats, stats)
						}
						if !reflect.DeepEqual(fres, res) {
							t.Fatalf("fused result differs:\nfused     %+v\ntwo-phase %+v", fres, res)
						}
						// Self-refresh covers retention on its own; outside
						// it a long trace must pay its refresh floor.
						if stats.SelfRefreshes == 0 && stats.Refreshes == 0 {
							t.Fatal("no refreshes scheduled on a multi-tREFI trace")
						}
						if res.Refreshes != stats.Refreshes {
							t.Fatalf("replay counted %d refreshes, scheduler reported %d", res.Refreshes, stats.Refreshes)
						}
						if stats.SelfRefreshes == 0 && res.MaxRefreshInterval > (trace.MaxPostponedRefreshes+1)*tREFI+timing.For(m.D.Spec).RFC {
							t.Fatalf("max refresh interval %d slots exceeds the postponement bound", res.MaxRefreshInterval)
						}
					})
				}
			}
		}
	}
}

// TestRefreshSurvivesPowerDown pins the deadline-vs-power-down
// interaction: an idle gap spanning many tREFI with power-down armed must
// be segmented into pd windows separated by refreshes — no deadline may
// slide past the postponement bound just because the rank was asleep.
func TestRefreshSurvivesPowerDown(t *testing.T) {
	m := model(t)
	tREFI := timing.For(m.D.Spec).REFI
	gap := 12 * tREFI // far beyond the 8-deep postponement window
	reqs := []Request{
		{Slot: 0, Addr: 0},
		{Slot: gap, Addr: 1 << 20},
	}
	cmds, stats := schedule(t, m, reqs, Options{Policy: PolicyClosed, PowerDownAfter: 24})
	res := replayAll(t, m, cmds, 1, m.D.Spec.Banks())
	if res.MissedRefreshDeadlines != 0 {
		t.Fatalf("%d missed deadlines across a %d-slot power-down gap", res.MissedRefreshDeadlines, gap)
	}
	if stats.Refreshes < 10 {
		t.Fatalf("only %d refreshes across 12 tREFI", stats.Refreshes)
	}
	// The gap must still be power-managed: multiple windows around the
	// refreshes, not one window abandoned for them.
	if stats.PowerDowns < 2 {
		t.Fatalf("gap segmented into %d power-down windows, want >= 2", stats.PowerDowns)
	}
	if res.MaxRefreshInterval > (trace.MaxPostponedRefreshes+1)*tREFI {
		t.Fatalf("max refresh interval %d exceeds deadline bound %d",
			res.MaxRefreshInterval, (trace.MaxPostponedRefreshes+1)*tREFI)
	}
}

// TestDisableRefreshReportsMisses: with the scheduler's refresh off, the
// replayer's retention audit must flag the trace, and the refresh
// counters must stay zero.
func TestDisableRefreshReportsMisses(t *testing.T) {
	m := model(t)
	reqs, err := GenerateAccesses(m, genOpts(600, 0.5, 120))
	if err != nil {
		t.Fatal(err)
	}
	cmds, stats := schedule(t, m, reqs, Options{Policy: PolicyClosed, DisableRefresh: true})
	if stats.Refreshes != 0 || stats.PostponedRefreshes != 0 || stats.ForcedRefreshes != 0 {
		t.Fatalf("DisableRefresh still scheduled refreshes: %+v", stats)
	}
	res := replayAll(t, m, cmds, 1, m.D.Spec.Banks())
	if res.MissedRefreshDeadlines == 0 {
		t.Fatal("refresh-free multi-tREFI trace audited clean")
	}
}

// TestRefreshEveryOverride: halving the interval roughly doubles the
// refresh count, and an interval at or below tRFC is rejected.
func TestRefreshEveryOverride(t *testing.T) {
	m := model(t)
	tREFI := timing.For(m.D.Spec).REFI
	tRFC := timing.For(m.D.Spec).RFC
	reqs, err := GenerateAccesses(m, genOpts(600, 0.5, 120))
	if err != nil {
		t.Fatal(err)
	}
	_, base := schedule(t, m, reqs, Options{Policy: PolicyClosed})
	cmds, half := schedule(t, m, reqs, Options{Policy: PolicyClosed, RefreshEvery: tREFI / 2})
	if half.Refreshes < 2*base.Refreshes-2 {
		t.Fatalf("tREFI/2 scheduled %d refreshes vs %d at tREFI", half.Refreshes, base.Refreshes)
	}
	if res := replayAll(t, m, cmds, 1, m.D.Spec.Banks()); res.MissedRefreshDeadlines != 0 {
		t.Fatalf("override trace missed %d deadlines", res.MissedRefreshDeadlines)
	}
	if _, err := NewController(m, Options{RefreshEvery: tRFC}); err == nil {
		t.Fatal("refresh interval == tRFC accepted")
	}
	if _, err := NewController(m, Options{RefreshEvery: -1}); err == nil {
		t.Fatal("negative refresh interval accepted")
	}
	if _, err := NewController(m, Options{MaxPostponed: -1}); err == nil {
		t.Fatal("negative postponement bound accepted")
	}
}

// TestMaxPostponedBoundsInterval: a tighter postponement bound tightens
// the audited worst-case refresh interval on a backlogged stream.
func TestMaxPostponedBoundsInterval(t *testing.T) {
	m := model(t)
	tREFI := timing.For(m.D.Spec).REFI
	// Dense arrivals keep every slot contended so the scheduler leans on
	// postponement; the bound is what separates the two runs.
	reqs, err := GenerateAccesses(m, genOpts(6000, 0.5, 1))
	if err != nil {
		t.Fatal(err)
	}
	run := func(maxPost int) trace.Result {
		cmds, _ := schedule(t, m, reqs, Options{Policy: PolicyOpen, MaxPostponed: maxPost})
		return replayAll(t, m, cmds, 1, m.D.Spec.Banks())
	}
	tight, loose := run(1), run(trace.MaxPostponedRefreshes)
	if tight.MissedRefreshDeadlines != 0 || loose.MissedRefreshDeadlines != 0 {
		t.Fatalf("missed deadlines: tight %d, loose %d", tight.MissedRefreshDeadlines, loose.MissedRefreshDeadlines)
	}
	if tight.MaxRefreshInterval > 2*tREFI+timing.For(m.D.Spec).RFC {
		t.Fatalf("maxPost=1 interval %d exceeds 2*tREFI bound", tight.MaxRefreshInterval)
	}
	if tight.MaxRefreshInterval >= loose.MaxRefreshInterval {
		t.Fatalf("tight bound interval %d not below loose %d", tight.MaxRefreshInterval, loose.MaxRefreshInterval)
	}
}

// TestSelfRefreshCoversRetention: a trace that parks in self-refresh
// through its long gaps needs no ref commands for those spans and still
// audits clean — sre/srx reset the retention epoch.
func TestSelfRefreshCoversRetention(t *testing.T) {
	m := model(t)
	reqs, err := GenerateAccesses(m, genOpts(100, 0, 3000))
	if err != nil {
		t.Fatal(err)
	}
	cmds, stats := schedule(t, m, reqs, Options{Policy: PolicyClosed, PowerDownAfter: 16, SelfRefreshAfter: 400})
	if stats.SelfRefreshes == 0 {
		t.Fatal("no self-refresh on a gap-3000 stream")
	}
	res := replayAll(t, m, cmds, 1, m.D.Spec.Banks())
	if res.MissedRefreshDeadlines != 0 {
		t.Fatalf("self-refresh trace missed %d deadlines", res.MissedRefreshDeadlines)
	}
}
