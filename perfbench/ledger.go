package main

// The traced run. It rebuilds each workload's op from the public library
// calls behind it, runs them serially in one goroutine where the program
// would pipeline, and records a span around every call. Every traced run
// measures the whole layer ledger — all four decompositions — so each run
// prints every per-layer metric; --workload picks the op whose layer sum,
// pipeline gap and tracing overhead are reported beside them.

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"reflect"
	"runtime"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"drampower/internal/core"
	"drampower/internal/ctl"
	"drampower/internal/desc"
	"drampower/internal/engine"
	"drampower/internal/sensitivity"
	"drampower/internal/server"
	"drampower/internal/trace"
)

// ledgerSize fixes the traced run's work. Op counts are fixed, not timed,
// so every count the run reports repeats exactly for a seed.
type ledgerSize struct {
	replayOps, schedOps, serveOps, sweepOps int
	// speedupCalls is the number of untraced calls per worker count behind
	// each speed-up ratio.
	speedupCalls int
	// focusWindow bounds the untraced window that gives the focus
	// workload's cpu_ns_per_op and GC share.
	focusWindow time.Duration
}

var fullLedger = ledgerSize{replayOps: 10, schedOps: 10, serveOps: 600, sweepOps: 6, speedupCalls: 5, focusWindow: 4 * time.Second}

// ledger holds the four set-up workloads and what their traced ops
// recorded.
type ledger struct {
	replay *replayDTB
	sched  *scheduleReplay
	serve  *serveMix
	sweep  *paperSweep

	tracers map[string]*tracer
	ops     map[string]int

	// Pre-sharded per-channel commands of the two batch workloads.
	replayShards, schedShards [][]trace.Command
	// Replay decode buffer, reused across ops.
	slab []trace.Command
	// Requests decoded from the .dab stream, reused across ops.
	reqBuf []ctl.Request
}

func newLedger(seed uint64) (*ledger, error) {
	l := &ledger{tracers: map[string]*tracer{}, ops: map[string]int{}, slab: make([]trace.Command, 1<<15)}
	var err error
	if l.replay, err = newReplayDTB(seed); err != nil {
		return nil, err
	}
	if l.replayShards, err = l.replay.channelShards(); err != nil {
		return nil, err
	}
	if l.sched, err = newScheduleReplay(seed); err != nil {
		return nil, err
	}
	if l.schedShards, err = l.sched.channelCommands(); err != nil {
		return nil, err
	}
	if l.sweep, err = newPaperSweep(seed); err != nil {
		return nil, err
	}
	if l.serve, err = newServeMix(seed); err != nil {
		return nil, err
	}
	return l, nil
}

func (l *ledger) close() { l.serve.close() }

func (l *ledger) workload(name string) workload {
	switch name {
	case "replay-dtb":
		return l.replay
	case "schedule-replay":
		return l.sched
	case "serve-mix":
		return l.serve
	}
	return l.sweep
}

// tracedOp runs op number op of the named workload's decomposition,
// recording spans into tr (nil: untraced).
func (l *ledger) tracedOp(name string, tr *tracer, op int) error {
	switch name {
	case "replay-dtb":
		return l.replayOp(tr, op)
	case "schedule-replay":
		return l.schedOp(tr, op)
	case "serve-mix":
		return l.serveOp(tr, op)
	}
	return l.sweepOp(tr, op)
}

// replayOp is one replay-dtb call, serially: decode the whole dtb trace,
// issue each channel's pre-sharded commands, merge the channels.
func (l *ledger) replayOp(tr *tracer, op int) error {
	w := l.replay
	root := tr.begin("replay-dtb", -1, op)
	defer tr.end(root)
	s := tr.begin("trace.dtb_decode", root, op)
	sc := trace.NewBinaryScanner(bytes.NewReader(w.dtb))
	var n int64
	for {
		k := sc.ScanBatch(l.slab)
		n += int64(k)
		if k < len(l.slab) {
			break
		}
	}
	tr.end(s)
	if sc.Err() != nil || n != w.cmds {
		return fmt.Errorf("replay-dtb: decoded %d of %d commands: %v", n, w.cmds, sc.Err())
	}
	r := trace.NewReplayer(w.m, trace.ReplayOptions{Channels: replayChannels, Workers: 1})
	for ch, cmds := range l.replayShards {
		s = tr.begin("trace.issue", root, op)
		err := r.RunChannel(ch, cmds)
		tr.end(s)
		if err != nil {
			return err
		}
	}
	s = tr.begin("trace.merge", root, op)
	res := r.Result(r.Now() + int64(w.m.BurstSlots()))
	tr.end(s)
	if !reflect.DeepEqual(res, w.ref) {
		return fmt.Errorf("replay-dtb: traced op: %w", errMismatch)
	}
	return nil
}

// countingSink counts the batches the scheduler delivers and drops them.
type countingSink struct{ n *atomic.Int64 }

func (s countingSink) Consume(int, []trace.Command) error {
	s.n.Add(1)
	return nil
}

// schedOp is one schedule-replay call, serially: decode the .dab stream,
// schedule it, issue each channel's scheduled commands, merge. The
// scheduler maps every request itself; the separate Mapper.Map pass is
// timed as its child, so the schedule span's self time excludes mapping.
func (l *ledger) schedOp(tr *tracer, op int) error {
	w := l.sched
	root := tr.begin("schedule-replay", -1, op)
	defer tr.end(root)
	s := tr.begin("ctl.dab_decode", root, op)
	bs := ctl.NewBinaryScanner(bytes.NewReader(w.dab))
	reqs := l.reqBuf[:0]
	for bs.Scan() {
		reqs = append(reqs, bs.Request())
	}
	tr.end(s)
	l.reqBuf = reqs
	if bs.Err() != nil || int64(len(reqs)) != w.reqs {
		return fmt.Errorf("schedule-replay: decoded %d of %d requests: %v", len(reqs), w.reqs, bs.Err())
	}
	c, err := ctl.NewController(w.m, schedOptions(1))
	if err != nil {
		return err
	}
	sched := tr.begin("ctl.schedule", root, op)
	var batches atomic.Int64
	stats, err := c.ScheduleInto(ctl.NewSliceSource(reqs), countingSink{&batches})
	tr.end(sched)
	if err != nil {
		return err
	}
	tr.count("ctl.batches", batches.Load())
	mapper := c.Mapper()
	s = tr.begin("ctl.map", sched, op)
	for _, q := range reqs {
		if _, err = mapper.Map(q.Addr); err != nil {
			break
		}
	}
	tr.end(s)
	if err != nil {
		return err
	}
	r := trace.NewReplayer(w.m, trace.ReplayOptions{Channels: schedChannels, Workers: 1})
	for ch, cmds := range l.schedShards {
		s = tr.begin("trace.issue", root, op)
		err := r.RunChannel(ch, cmds)
		tr.end(s)
		if err != nil {
			return err
		}
	}
	s = tr.begin("trace.merge", root, op)
	res := r.Result(r.Now() + int64(w.m.BurstSlots()))
	tr.end(s)
	if stats != w.refStats || !reflect.DeepEqual(res, w.refRes) {
		return fmt.Errorf("schedule-replay: traced op: %w", errMismatch)
	}
	return nil
}

// serveOp is one serve-mix request: sent over loopback, then the same
// class in process through the handler, then the library calls behind the
// handler. The in-process handler is the server side of the round trip
// and the library calls are its parts, so each is timed as the child of
// the one before: the round trip's self time is transport, the handler's
// is HTTP plumbing, routing and caching.
func (l *ledger) serveOp(tr *tracer, op int) error {
	w := l.serve
	k, r := w.pick(0, op)
	cls := classNames[k]
	root := tr.begin("serve-mix", -1, op)
	defer tr.end(root)
	rt := tr.begin("server.roundtrip."+cls, root, op)
	err := w.post(0, r)
	tr.end(rt)
	if err != nil {
		return fmt.Errorf("serve-mix %s over loopback: %w", cls, err)
	}
	if k == evalUncached {
		// A fresh name: the loopback request just cached this one.
		r = w.coldRequest()
	}
	h := tr.begin("server.handler."+cls, rt, op)
	rec := httptest.NewRecorder()
	w.srv.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, r.path, bytes.NewReader(r.body)))
	tr.end(h)
	tr.count("server.requests", 2)
	if rec.Code != http.StatusOK || !bytes.Equal(rec.Body.Bytes(), r.want) {
		return fmt.Errorf("serve-mix %s in process: status %d: %w", cls, rec.Code, errMismatch)
	}

	switch k {
	case evalCached:
		return l.encode(tr, h, op, w.hotModel, w.hotKey, r.want)
	case evalUncached:
		s := tr.begin("desc.parse", h, op)
		d, err := desc.ParseString(string(r.body))
		tr.end(s)
		if err != nil {
			return err
		}
		s = tr.begin("core.build", h, op)
		m, err := core.Build(d)
		tr.end(s)
		if err != nil {
			return err
		}
		return l.encode(tr, h, op, m, server.CalibratedKey(d, nil), r.want)
	case schedReq:
		s := tr.begin("ctl.text_decode", h, op)
		sc := ctl.NewScanner(bytes.NewReader(r.body))
		var reqs []ctl.Request
		for sc.Scan() {
			reqs = append(reqs, sc.Request())
		}
		tr.end(s)
		if sc.Err() != nil {
			return sc.Err()
		}
		tr.count("ctl.text_reqs", int64(len(reqs)))
		s = tr.begin("ctl.schedule_replay", h, op)
		stats, _, err := ctl.ScheduleReplayRequests(w.sampleModel, reqs, ctl.Options{Policy: ctl.PolicyOpen, Workers: 1},
			trace.ReplayOptions{Workers: 1})
		tr.end(s)
		if err == nil && stats.Requests != int64(len(reqs)) {
			err = fmt.Errorf("serve-mix schedule: %d of %d requests scheduled", stats.Requests, len(reqs))
		}
		return err
	default:
		s := tr.begin("trace.text_decode", h, op)
		sc := trace.NewScanner(bytes.NewReader(r.body))
		var cmds []trace.Command
		for sc.Scan() {
			cmds = append(cmds, sc.Command())
		}
		tr.end(s)
		if sc.Err() != nil {
			return sc.Err()
		}
		tr.count("trace.text_cmds", int64(len(cmds)))
		rep := trace.NewReplayer(w.sampleModel, trace.ReplayOptions{Channels: 1, Workers: 1})
		s = tr.begin("trace.issue", h, op)
		err := rep.RunChannel(0, cmds)
		tr.end(s)
		if err != nil {
			return err
		}
		s = tr.begin("trace.merge", h, op)
		rep.Result(rep.Now() + int64(w.sampleModel.BurstSlots()))
		tr.end(s)
		return nil
	}
}

// encode times the /v1/evaluate response encoding and, as its child, the
// model evaluation EvaluateResponseFor performs.
func (l *ledger) encode(tr *tracer, parent, op int, m *core.Model, key string, want []byte) error {
	s := tr.begin("server.encode", parent, op)
	b, err := encodeJSON(server.EvaluateResponseFor(m, key))
	tr.end(s)
	e := tr.begin("core.evaluate", s, op)
	m.Evaluate()
	m.IDD()
	tr.end(e)
	if err != nil {
		return err
	}
	if !bytes.Equal(b, want) {
		return fmt.Errorf("serve-mix encode: %w", errMismatch)
	}
	return nil
}

// sweepOp is one paper-sweep regeneration at one worker.
func (l *ledger) sweepOp(tr *tracer, op int) error {
	w := l.sweep
	root := tr.begin("paper-sweep", -1, op)
	defer tr.end(root)
	var buf bytes.Buffer
	within, err := regenerate(&buf, w.devs, engine.Options{Workers: 1}, tr, root, op)
	if err != nil {
		return err
	}
	if within != w.within || !bytes.Equal(buf.Bytes(), w.ref) {
		return fmt.Errorf("paper-sweep: traced op: %w", errMismatch)
	}
	return nil
}

// serverCounters scrapes the server's /metrics in process.
func (l *ledger) serverCounters() (map[string]float64, error) {
	rec := httptest.NewRecorder()
	l.serve.srv.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	if rec.Code != http.StatusOK {
		return nil, fmt.Errorf("/metrics: status %d", rec.Code)
	}
	out := map[string]float64{}
	sc := bufio.NewScanner(rec.Body)
	for sc.Scan() {
		f := strings.Fields(sc.Text())
		if len(f) != 2 || strings.HasPrefix(f[0], "#") {
			continue
		}
		v, err := strconv.ParseFloat(f[1], 64)
		if err != nil {
			return nil, fmt.Errorf("/metrics line %q: %w", sc.Text(), err)
		}
		out[f[0]] = v
	}
	return out, sc.Err()
}

// wallMedian returns the median of calls timed calls of f, in ns.
func wallMedian(calls int, f func() error) (float64, error) {
	var ts []float64
	for i := 0; i < calls; i++ {
		d, err := timed(f)
		if err != nil {
			return 0, err
		}
		ts = append(ts, d)
	}
	return median(ts), nil
}

// speedup is the median wall time of f at one worker over that at
// `workers`, the calls alternating.
func speedup(calls int, f func(workers int) error) (float64, error) {
	var one, two []float64
	for i := 0; i < calls; i++ {
		for _, w := range []int{1, workers} {
			d, err := timed(func() error { return f(w) })
			if err != nil {
				return 0, err
			}
			if w == 1 {
				one = append(one, d)
			} else {
				two = append(two, d)
			}
		}
	}
	return median(one) / median(two), nil
}

// focusStats is the untraced measurement of the focus workload taken
// inside the traced run.
type focusStats struct {
	cpuPerOp      float64 // ns per op
	gcFraction    float64
	tracedWall    float64 // ns, summed over the decomposition's ops
	untracedWall  float64
	opUnits       int64 // units per decomposition op: cmds, requests, regenerations
	decomposition string
}

// runLedger measures everything the traced run reports.
func (l *ledger) runLedger(focus string, size ledgerSize) (focusStats, error) {
	fs := focusStats{decomposition: focus}
	w := l.workload(focus)

	// Untraced: the focus workload's own op, for CPU per op and GC share.
	if _, err := measure(w, size.focusWindow/4); err != nil {
		return fs, err
	}
	rc := newRuntimeCounters()
	_, gc0, tot0 := rc.read()
	win, err := measure(w, size.focusWindow)
	if err != nil {
		return fs, err
	}
	_, gc1, tot1 := rc.read()
	var ops int64
	for _, c := range win.calls {
		if c.failed {
			return fs, fmt.Errorf("%s: untraced op failed: %w", focus, win.err)
		}
		ops += c.ops
	}
	fs.cpuPerOp = win.cpu * 1e9 / float64(ops)
	if tot1 > tot0 {
		fs.gcFraction = (gc1 - gc0) / (tot1 - tot0)
	}

	// Warm the server so the counted requests see the steady state: the
	// hot and sample models built, the hot body's document cached. Op i
	// of the traced requests is position i of client 0's class sequence,
	// whatever the untraced window used, so the server's counts repeat
	// for a seed. (Uncached names continue their cycle: the next ones are
	// the least recently used, and miss.)
	for _, r := range []request{l.serve.hot, l.serve.sched[0]} {
		if err := l.serve.post(0, r); err != nil {
			return fs, err
		}
	}
	before, err := l.serverCounters()
	if err != nil {
		return fs, err
	}

	counts := map[string]int{"replay-dtb": size.replayOps, "schedule-replay": size.schedOps,
		"serve-mix": size.serveOps, "paper-sweep": size.sweepOps}
	for _, name := range workloadNames {
		tr, err := newTracer(name)
		if err != nil {
			return fs, err
		}
		l.tracers[name] = tr
		l.ops[name] = counts[name]
		for op := 0; op < counts[name]; op++ {
			d, err := timed(func() error { return l.tracedOp(name, tr, op) })
			if err != nil {
				return fs, err
			}
			if name == focus {
				fs.tracedWall += d
			}
		}
		if err := tr.finish(); err != nil {
			return fs, err
		}
		if name == "serve-mix" {
			after, err := l.serverCounters()
			if err != nil {
				return fs, err
			}
			l.serve.delta = map[string]float64{}
			for k, v := range after {
				l.serve.delta[k] = v - before[k]
			}
		}
		if name != focus {
			continue
		}
		// The same ops again untraced, for the tracing overhead. They run
		// after the traced pass, not interleaved with it: interleaved
		// serve-mix re-runs would change which models the cache holds
		// when the counted requests arrive.
		for op := 0; op < counts[name]; op++ {
			d, err := timed(func() error { return l.tracedOp(name, nil, op) })
			if err != nil {
				return fs, err
			}
			fs.untracedWall += d
		}
	}
	fs.opUnits = map[string]int64{"replay-dtb": l.replay.cmds, "schedule-replay": l.sched.reqs,
		"serve-mix": 1, "paper-sweep": 1}[focus]
	return fs, nil
}

// perLayer derives the per-layer metrics from the spans, counters and
// the untraced reference measurements.
func (l *ledger) perLayer(fs focusStats, size ledgerSize) (map[string]metric, error) {
	m := map[string]metric{}
	lay := map[string]map[string]*layerStat{}
	for name, tr := range l.tracers {
		lay[name], _ = tr.layers()
	}
	// get returns a span name's stats, or zero stats when no op of the run
	// reached it (a serve-mix class the sequence never drew).
	get := func(wl, span string) layerStat {
		if st := lay[wl][span]; st != nil {
			return *st
		}
		return layerStat{}
	}
	perOp := func(wl string) float64 { return float64(l.ops[wl]) }
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}

	rCmds := perOp("replay-dtb") * float64(l.replay.cmds)
	m["trace.dtb_decode_ns_per_cmd"] = metric{ratio(get("replay-dtb", "trace.dtb_decode").dur, rCmds), "ns/cmd"}
	m["trace.issue_ns_per_cmd"] = metric{ratio(get("replay-dtb", "trace.issue").dur, rCmds), "ns/cmd"}
	m["trace.merge_us"] = metric{get("replay-dtb", "trace.merge").dur / perOp("replay-dtb") / 1e3, "us"}
	serveCounts := l.tracers["serve-mix"].counts
	m["trace.text_decode_ns_per_cmd"] = metric{ratio(get("serve-mix", "trace.text_decode").dur, float64(serveCounts["trace.text_cmds"])), "ns/cmd"}
	m["trace.cmds_per_op"] = metric{float64(l.replay.cmds), "count"}

	sReqs := perOp("schedule-replay") * float64(l.sched.reqs)
	dec, sch, iss := get("schedule-replay", "ctl.dab_decode"), get("schedule-replay", "ctl.schedule"), get("schedule-replay", "trace.issue")
	m["ctl.dab_decode_ns_per_req"] = metric{dec.dur / sReqs, "ns/req"}
	m["ctl.map_ns_per_req"] = metric{get("schedule-replay", "ctl.map").dur / sReqs, "ns/req"}
	m["ctl.schedule_ns_per_req"] = metric{sch.dur / sReqs, "ns/req"}
	m["ctl.text_decode_ns_per_req"] = metric{ratio(get("serve-mix", "ctl.text_decode").dur, float64(serveCounts["ctl.text_reqs"])), "ns/req"}
	st := l.sched.refStats
	kreq := float64(st.Requests) / 1e3
	m["ctl.cmds_per_req"] = metric{float64(st.Commands) / float64(st.Requests), "count"}
	m["ctl.row_hit_rate"] = metric{st.RowHitRate(), "fraction"}
	m["ctl.refreshes_per_kreq"] = metric{float64(st.Refreshes) / kreq, "1/kreq"}
	m["ctl.power_downs_per_kreq"] = metric{float64(st.PowerDowns) / kreq, "1/kreq"}
	m["ctl.batches_per_op"] = metric{float64(l.tracers["schedule-replay"].counts["ctl.batches"]) / perOp("schedule-replay"), "count"}

	for _, cls := range classNames {
		h := get("serve-mix", "server.handler."+cls)
		m["server.handler_ms."+cls] = metric{ratio(h.dur, float64(h.calls)) / 1e6, "ms"}
	}
	rt, hc := get("serve-mix", "server.roundtrip.evaluate_cached"), get("serve-mix", "server.handler.evaluate_cached")
	m["server.transport_ms"] = metric{ratio(rt.dur-hc.dur, float64(rt.calls)) / 1e6, "ms"}
	enc := get("serve-mix", "server.encode")
	m["server.encode_us"] = metric{ratio(enc.dur, float64(enc.calls)) / 1e3, "us"}
	d := l.serve.delta
	hits, misses := d["dramserved_model_cache_hits_total"], d["dramserved_model_cache_misses_total"]
	m["server.model_cache_hit_ratio"] = metric{ratio(hits, hits+misses), "fraction"}
	m["server.builds_per_kreq"] = metric{ratio(d["dramserved_model_builds_total"], float64(serveCounts["server.requests"])/1e3), "1/kreq"}
	m["server.rejected"] = metric{d["dramserved_rejected_total"], "count"}

	for _, c := range []struct{ name, span, unit string }{
		{"desc.parse_us", "desc.parse", "us"}, {"core.build_ms", "core.build", "ms"}, {"core.evaluate_us", "core.evaluate", "us"},
	} {
		s := get("serve-mix", c.span)
		scale := map[string]float64{"us": 1e3, "ms": 1e6}[c.unit]
		m[c.name] = metric{ratio(s.dur, float64(s.calls)) / scale, c.unit}
	}
	for _, span := range []string{"sensitivity.sweep", "schemes.evaluate", "datasheet.compare", "scaling.trend"} {
		m[span+"_ms"] = metric{get("paper-sweep", span).dur / perOp("paper-sweep") / 1e6, "ms"}
	}

	// Allocation per timed unit: per op for the batch decompositions, per
	// call for the server-side calls.
	for _, a := range []struct{ wl, span string }{
		{"replay-dtb", "trace.dtb_decode"}, {"replay-dtb", "trace.issue"}, {"replay-dtb", "trace.merge"},
		{"schedule-replay", "ctl.dab_decode"}, {"schedule-replay", "ctl.map"}, {"schedule-replay", "ctl.schedule"},
		{"paper-sweep", "sensitivity.sweep"}, {"paper-sweep", "schemes.evaluate"},
		{"paper-sweep", "datasheet.compare"}, {"paper-sweep", "scaling.trend"},
	} {
		m[a.span+".alloc_kb_per_op"] = metric{float64(get(a.wl, a.span).alloc) / perOp(a.wl) / 1e3, "kB/op"}
	}
	for _, span := range []string{"trace.text_decode", "ctl.text_decode", "server.encode", "desc.parse", "core.build", "core.evaluate",
		"server.handler.evaluate_cached", "server.handler.evaluate_uncached", "server.handler.schedule", "server.handler.trace"} {
		s := get("serve-mix", span)
		m[span+".alloc_kb_per_op"] = metric{ratio(float64(s.alloc), float64(s.calls)) / 1e3, "kB/op"}
	}
	m["process.gc_cpu_fraction"] = metric{fs.gcFraction, "fraction"}

	// Untraced ratios.
	sp, err := speedup(size.speedupCalls, func(w int) error {
		_, err := trace.Replay(l.replay.m, bytes.NewReader(l.replay.dtb), trace.ReplayOptions{Channels: replayChannels, Workers: w})
		return err
	})
	if err != nil {
		return nil, err
	}
	m["trace.channel_speedup"] = metric{sp, "x"}
	if sp, err = speedup(size.speedupCalls, func(w int) error {
		for _, d := range l.sweep.devs {
			if _, err := sensitivity.SweepOpts(d, engine.Options{Workers: w}); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		return nil, err
	}
	m["engine.speedup"] = metric{sp, "x"}
	fused, err := wallMedian(size.speedupCalls, func() error {
		_, err := l.sched.call(0)
		return err
	})
	if err != nil {
		return nil, err
	}
	m["ctl.fused_overlap"] = metric{(dec.dur + sch.dur + iss.dur) / perOp("schedule-replay") / fused, "x"}

	// The focus op: its layer sum, the gap to its untraced CPU per op, and
	// the tracing overhead.
	sum := l.layerSum(fs.decomposition) / perOp(fs.decomposition) / float64(fs.opUnits)
	m["op.layer_sum_ns_per_op"] = metric{sum, "ns/op"}
	m["op.pipeline_gap_ns_per_op"] = metric{fs.cpuPerOp - sum, "ns/op"}
	m["op.trace_overhead"] = metric{fs.tracedWall/fs.untracedWall - 1, "fraction"}
	return m, nil
}

// layerSum is the summed self time (ns) of a decomposition's layer spans:
// everything but the op roots, whose self time is the harness.
func (l *ledger) layerSum(wl string) float64 {
	lay, _ := l.tracers[wl].layers()
	var sum float64
	for name, st := range lay {
		if name != wl {
			sum += st.self
		}
	}
	return sum
}

// runTraced is the traced run: the whole layer ledger, with the named
// workload as its focus.
func runTraced(out io.Writer, name string, seed uint64, d time.Duration, spansDir string) (result, error) {
	if !slices.Contains(workloadNames, name) {
		return result{}, fmt.Errorf("unknown workload %q (want one of %v)", name, workloadNames)
	}
	size := fullLedger
	if d/2 < size.focusWindow {
		size.focusWindow = d / 2
	}
	l, err := newLedger(seed)
	if err != nil {
		return result{}, err
	}
	defer l.close()
	runtime.GC()
	fs, err := l.runLedger(name, size)
	if err != nil {
		return result{}, err
	}
	m, err := l.perLayer(fs, size)
	if err != nil {
		return result{}, err
	}
	l.report(out, name, seed, fs, m)
	if spansDir != "" {
		tracers := make([]*tracer, 0, len(workloadNames))
		for _, wl := range workloadNames {
			tracers = append(tracers, l.tracers[wl])
		}
		path := filepath.Join(spansDir, fmt.Sprintf("%s-seed%d.jsonl", name, seed))
		if err := writeSpans(path, tracers); err != nil {
			return result{}, err
		}
		fmt.Fprintf(out, "spans: %s\n", path)
	}
	var attempted int64
	for _, n := range l.ops {
		attempted += int64(n)
	}
	return result{Correct: true, Attempted: attempted, Metrics: m}, nil
}

// report prints the focus op's self time per layer, the layer sum against
// the untraced CPU per op, the tracing overhead, then every metric.
func (l *ledger) report(out io.Writer, name string, seed uint64, fs focusStats, m map[string]metric) {
	lay, order := l.tracers[name].layers()
	per := float64(l.ops[name]) * float64(fs.opUnits)
	fmt.Fprintf(out, "perfbench %s seed=%d traced: self time per op (%d ops, serial, one worker; steal excluded, delivered=%.4f)\n",
		name, seed, l.ops[name], l.tracers[name].delivered)
	for _, n := range order {
		st := lay[n]
		label := n
		if n == name {
			label = "(harness: op set-up, checks, re-runs)"
		}
		fmt.Fprintf(out, "  %-40s %14.6g ns/op  %6d calls  %10.4g kB/op\n", label, st.self/per, st.calls,
			float64(st.alloc)/float64(l.ops[name])/1e3)
	}
	sum := m["op.layer_sum_ns_per_op"].Value
	fmt.Fprintf(out, "  %-40s %14.6g ns/op\n", "layer sum", sum)
	fmt.Fprintf(out, "  %-40s %14.6g ns/op  (pipelined, %d workers)\n", "untraced cpu_ns_per_op", fs.cpuPerOp, workers)
	fmt.Fprintf(out, "  %-40s %14.6g ns/op  (rings, hand-offs, sharding, GC)\n", "gap", m["op.pipeline_gap_ns_per_op"].Value)
	fmt.Fprintf(out, "  %-40s %14.4g %%     (traced vs untraced serial ops)\n", "tracing overhead", 100*m["op.trace_overhead"].Value)
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(out, "  %-40s %14.6g %s\n", k, m[k].Value, m[k].Unit)
	}
}
