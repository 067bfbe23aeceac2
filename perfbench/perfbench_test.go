package main

import (
	"testing"
	"time"
)

// countMetrics are the per-layer metrics that count work instead of
// timing it. A performance change leaves them identical, so for a seed
// they must repeat exactly; a move means the outputs changed.
var countMetrics = []string{
	"trace.cmds_per_op", "ctl.cmds_per_req", "ctl.row_hit_rate", "ctl.refreshes_per_kreq",
	"ctl.power_downs_per_kreq", "ctl.batches_per_op", "server.builds_per_kreq", "server.rejected",
	"server.model_cache_hit_ratio",
}

var briefLedger = ledgerSize{replayOps: 1, schedOps: 1, serveOps: 40, sweepOps: 1, speedupCalls: 1,
	focusWindow: 200 * time.Millisecond}

// briefRun sets every workload up at seed, runs each one's op briefly,
// then the traced ledger with the given focus, and returns the per-layer
// metrics and the digests of the generated inputs.
func briefRun(t *testing.T, seed uint64, focus string) (map[string]metric, map[string][32]byte) {
	t.Helper()
	l, err := newLedger(seed)
	if err != nil {
		t.Fatal(err)
	}
	defer l.close()
	for _, name := range workloadNames {
		win, err := measure(l.workload(name), 50*time.Millisecond)
		if err != nil {
			t.Fatal(err)
		}
		if win.err != nil {
			t.Fatalf("%s: %v", name, win.err)
		}
	}
	fs, err := l.runLedger(focus, briefLedger)
	if err != nil {
		t.Fatal(err)
	}
	m, err := l.perLayer(fs, briefLedger)
	if err != nil {
		t.Fatal(err)
	}
	digests := map[string][32]byte{}
	for _, name := range workloadNames {
		digests[name] = l.workload(name).digest()
	}
	return m, digests
}

func TestCountsAndInputsFollowTheSeed(t *testing.T) {
	if testing.Short() {
		t.Skip("sets every workload up three times")
	}
	// The focus op runs twice, traced and untraced; the counts must not
	// see the second run.
	a, inA := briefRun(t, 1, "serve-mix")
	b, inB := briefRun(t, 1, "schedule-replay")
	for _, k := range countMetrics {
		if a[k] != b[k] {
			t.Errorf("%s: %v then %v at the same seed", k, a[k], b[k])
		}
	}
	for _, name := range workloadNames {
		if inA[name] != inB[name] {
			t.Errorf("%s: seed 1 generated different inputs on a second set-up", name)
		}
	}
	l, err := newLedger(2)
	if err != nil {
		t.Fatal(err)
	}
	defer l.close()
	for _, name := range workloadNames {
		if l.workload(name).digest() == inA[name] {
			t.Errorf("%s: seeds 1 and 2 generated the same inputs", name)
		}
	}
}

func TestTailPicksHighestPercentileWithTenBeyond(t *testing.T) {
	for _, tc := range []struct {
		n      int
		pct    float64
		beyond int
	}{
		{50, 50, 25}, {500, 90, 50}, {999, 90, 99}, {1000, 99, 10}, {70000, 99.9, 70},
	} {
		xs := make([]float64, tc.n)
		for i := range xs {
			xs[i] = float64(i)
		}
		pct, v, beyond := tail(xs)
		if pct != tc.pct || beyond != tc.beyond || v != float64(tc.n-1-tc.beyond) {
			t.Errorf("n=%d: got p%g=%g with %d beyond, want p%g with %d beyond", tc.n, pct, v, beyond, tc.pct, tc.beyond)
		}
	}
}
