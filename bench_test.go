package drampower

// The benchmark harness regenerates every table and figure of the paper's
// evaluation (see DESIGN.md §4 for the experiment index). Each benchmark
// measures the cost of regenerating its artifact and reports the headline
// numbers of that artifact as custom metrics, so a `go test -bench=.`
// run doubles as the reproduction log. The full row/series output is
// printed by the cmd/ tools (dramverify, dramsweep, dramtrends,
// dramschemes).

import (
	"bytes"
	"math"
	"testing"

	"drampower/internal/ctl"
	"drampower/internal/datasheet"
	"drampower/internal/desc"
	"drampower/internal/scaling"
	"drampower/internal/schemes"
	"drampower/internal/sensitivity"
	"drampower/internal/trace"
)

// BenchmarkTableI_ParameterRegistry regenerates the Table I parameter
// inventory (E1): parsing a full description exercises every parameter of
// the input language.
func BenchmarkTableI_ParameterRegistry(b *testing.B) {
	src := Format(Sample1GbDDR3())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ParseString(src); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(len(desc.TechnologyParameterNames())), "tech-params")
}

// BenchmarkTableII_DisruptiveChanges regenerates Table II (E2).
func BenchmarkTableII_DisruptiveChanges(b *testing.B) {
	b.ReportMetric(float64(len(scaling.DisruptiveChanges())), "rows")
	for i := 0; i < b.N; i++ {
		_ = scaling.DisruptiveChanges()
	}
}

// BenchmarkFig5_TechScaling regenerates the Figure 5 shrink curves (E3).
func BenchmarkFig5_TechScaling(b *testing.B) {
	benchShrink(b, scaling.Figure5Families())
}

// BenchmarkFig6_MiscScaling regenerates the Figure 6 shrink curves (E4).
func BenchmarkFig6_MiscScaling(b *testing.B) {
	benchShrink(b, scaling.Figure6Families())
}

// BenchmarkFig7_CoreDeviceScaling regenerates the Figure 7 curves (E5).
func BenchmarkFig7_CoreDeviceScaling(b *testing.B) {
	benchShrink(b, scaling.Figure7Families())
}

func benchShrink(b *testing.B, families []string) {
	b.Helper()
	nodes, rows := scaling.ShrinkTable(families)
	// Report the final shrink of the first family vs. the feature shrink:
	// the qualitative content is "parameters shrink more slowly than f".
	last := len(nodes) - 1
	fshrink := scaling.FShrinkSeries()[last]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, _ = scaling.ShrinkTable(families)
	}
	b.ReportMetric(fshrink, "f-shrink-170-to-16")
	b.ReportMetric(rows[families[0]][last], families[0][:min(len(families[0]), 20)])
}

// BenchmarkFig8_DDR2Verification regenerates the Figure 8 datasheet
// comparison (E6) and reports how many points fall inside the vendor
// spread.
func BenchmarkFig8_DDR2Verification(b *testing.B) {
	benchVerify(b, datasheet.DDR2)
}

// BenchmarkFig9_DDR3Verification regenerates Figure 9 (E7).
func BenchmarkFig9_DDR3Verification(b *testing.B) {
	benchVerify(b, datasheet.DDR3)
}

func benchVerify(b *testing.B, std datasheet.Standard) {
	b.Helper()
	rows, err := datasheet.CompareOpts(std, BatchOptions{Workers: 1})
	if err != nil {
		b.Fatal(err)
	}
	within := 0
	for _, c := range rows {
		if c.WithinSpread(0.25) {
			within++
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := datasheet.CompareOpts(std, BatchOptions{Workers: 1}); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(within), "points-within-spread")
	b.ReportMetric(float64(len(rows)), "points-total")
}

// BenchmarkFig10_SensitivityPareto regenerates the ±20% parameter sweep
// (E8) on the 2G DDR3 55nm device and reports the top sensitivity.
func BenchmarkFig10_SensitivityPareto(b *testing.B) {
	n, err := scaling.NodeFor(55)
	if err != nil {
		b.Fatal(err)
	}
	d := n.Description()
	res, err := sensitivity.SweepOpts(d, BatchOptions{Workers: 1})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sensitivity.SweepOpts(d, BatchOptions{Workers: 1}); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(res[0].RangePct, "top-range-pct")
}

// BenchmarkTableIII_Top10Ranking regenerates the Table III rankings (E9)
// for the three paper devices and reports whether Vint leads all three.
func BenchmarkTableIII_Top10Ranking(b *testing.B) {
	nodes := []float64{170, 55, 18}
	vintFirst := 0
	for _, nm := range nodes {
		n, err := scaling.NodeFor(nm)
		if err != nil {
			b.Fatal(err)
		}
		res, err := sensitivity.SweepOpts(n.Description(), BatchOptions{Workers: 1})
		if err != nil {
			b.Fatal(err)
		}
		if res[0].Name == "Internal voltage Vint" {
			vintFirst++
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n, _ := scaling.NodeFor(55)
		if _, err := sensitivity.SweepOpts(n.Description(), BatchOptions{Workers: 1}); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(vintFirst), "devices-with-Vint-first")
}

// BenchmarkFig11_VoltageTrends regenerates the voltage roadmap (E10).
func BenchmarkFig11_VoltageTrends(b *testing.B) {
	nodes := scaling.Roadmap()
	b.ReportMetric(float64(nodes[0].Vdd), "Vdd-170nm")
	b.ReportMetric(float64(nodes[len(nodes)-1].Vdd), "Vdd-16nm")
	for i := 0; i < b.N; i++ {
		_ = scaling.Roadmap()
	}
}

// BenchmarkFig12_TimingTrends regenerates the data-rate / timing roadmap
// (E11) and reports the bandwidth growth against the near-flat tRC.
func BenchmarkFig12_TimingTrends(b *testing.B) {
	nodes := scaling.Roadmap()
	first, last := nodes[0], nodes[len(nodes)-1]
	b.ReportMetric(float64(last.DataRate)/float64(first.DataRate), "datarate-growth")
	b.ReportMetric(float64(first.TRC)/float64(last.TRC), "tRC-ratio")
	for i := 0; i < b.N; i++ {
		_ = scaling.Roadmap()
	}
}

// BenchmarkFig13_EnergyPerBitTrend regenerates the energy-per-bit trend
// (E12) across the full roadmap and reports the historic and forecast
// per-generation reduction factors (paper: ~1.5x and ~1.2x).
func BenchmarkFig13_EnergyPerBitTrend(b *testing.B) {
	energies := map[float64]float64{}
	for _, n := range scaling.Roadmap() {
		m, err := Build(n.Description())
		if err != nil {
			b.Fatal(err)
		}
		energies[n.FeatureNm] = float64(m.EnergyPerBitIDD7())
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, n := range scaling.Roadmap() {
			m, err := Build(n.Description())
			if err != nil {
				b.Fatal(err)
			}
			_ = m.EnergyPerBitIDD7()
		}
	}
	b.ReportMetric(math.Pow(energies[170]/energies[44], 1.0/7), "historic-x-per-gen")
	b.ReportMetric(math.Pow(energies[44]/energies[16], 1.0/6), "forecast-x-per-gen")
	b.ReportMetric(energies[55]/1e-12, "pJ-per-bit-55nm")
}

// BenchmarkSecV_SchemeComparison regenerates the Section V scheme
// comparison (E13) and reports the best energy saving and its area cost.
func BenchmarkSecV_SchemeComparison(b *testing.B) {
	d := Sample1GbDDR3()
	res, err := schemes.EvaluateOpts(d, BatchOptions{Workers: 1})
	if err != nil {
		b.Fatal(err)
	}
	best := 0.0
	bestArea := 0.0
	for _, r := range res[1:] {
		if r.EnergyDeltaPct < best {
			best = r.EnergyDeltaPct
			bestArea = r.AreaDeltaPct
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := schemes.EvaluateOpts(d, BatchOptions{Workers: 1}); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(-best, "best-energy-saving-pct")
	b.ReportMetric(bestArea, "its-area-cost-pct")
}

// ---- engine micro-benchmarks (hot paths) ----

// BenchmarkParse measures parsing a full description file.
func BenchmarkParse(b *testing.B) {
	src := Format(Sample1GbDDR3())
	b.SetBytes(int64(len(src)))
	for i := 0; i < b.N; i++ {
		if _, err := ParseString(src); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkBuild measures model resolution (geometry + capacitances).
func BenchmarkBuild(b *testing.B) {
	d := Sample1GbDDR3()
	for i := 0; i < b.N; i++ {
		if _, err := Build(d); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDescriptionClone measures a deep copy into fresh storage. The
// sensitivity and scheme variants copy into reused storage instead
// (CloneInto through core.Variant), which allocates nothing.
func BenchmarkDescriptionClone(b *testing.B) {
	d := Sample1GbDDR3()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = d.Clone()
	}
}

// BenchmarkEvaluatePattern measures a full pattern evaluation.
func BenchmarkEvaluatePattern(b *testing.B) {
	m, err := Build(Sample1GbDDR3())
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		_ = m.Evaluate()
	}
}

// BenchmarkIDD measures the full IDD suite evaluation.
func BenchmarkIDD(b *testing.B) {
	m, err := Build(Sample1GbDDR3())
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		_ = m.IDD()
	}
}

// BenchmarkTraceSimulation measures the command-trace simulator on a
// closed-page workload.
func BenchmarkTraceSimulation(b *testing.B) {
	m, err := Build(Sample1GbDDR3())
	if err != nil {
		b.Fatal(err)
	}
	cmds := trace.RandomClosedPage(m, 1000, 0.5, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := trace.Evaluate(m, cmds); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(len(cmds)), "commands")
}

// BenchmarkSweepSerial measures the full sensitivity sweep evaluated
// serially (Workers=1), the pre-engine behavior.
func BenchmarkSweepSerial(b *testing.B) {
	d := Sample1GbDDR3()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Sweep(d, BatchOptions{Workers: 1}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSweepParallel measures the same sweep on the batch engine at
// its default worker count, runtime.GOMAXPROCS(0). The results are
// identical to the serial sweep, and the wall time only improves when the
// runner actually has spare CPUs: with GOMAXPROCS == 1 the engine runs the
// jobs serially, so this coincides with BenchmarkSweepSerial, allocations
// included. Read the numbers against the env block benchjson records in
// BENCH_trace.json (go version, GOMAXPROCS, CPU count) before drawing
// scaling conclusions.
func BenchmarkSweepParallel(b *testing.B) {
	d := Sample1GbDDR3()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Sweep(d, BatchOptions{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTraceCached measures the trace simulator on the charge ledgers
// cached at Build time: per-command energy integration is an O(1) lookup.
func BenchmarkTraceCached(b *testing.B) {
	m, err := Build(Sample1GbDDR3())
	if err != nil {
		b.Fatal(err)
	}
	cmds := trace.RandomClosedPage(m, 1000, 0.5, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := trace.Evaluate(m, cmds); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(len(cmds)), "commands")
}

// BenchmarkTraceEnergyRecompute measures the pre-ledger cost of the same
// trace's energy integration: every command's charge-event list is derived
// from scratch (RecomputeCharges). Comparing against BenchmarkTraceCached
// shows the speedup the Build-time ledger buys.
func BenchmarkTraceEnergyRecompute(b *testing.B) {
	m, err := Build(Sample1GbDDR3())
	if err != nil {
		b.Fatal(err)
	}
	cmds := trace.RandomClosedPage(m, 1000, 0.5, 1)
	el := m.D.Electrical
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var e float64
		for _, c := range cmds {
			e += float64(m.RecomputeCharges(c.Op).EnergyFromVdd(el))
		}
		if e <= 0 {
			b.Fatal("no energy accumulated")
		}
	}
	b.ReportMetric(float64(len(cmds)), "commands")
}

// ---- trace-engine throughput benchmarks ----
//
// The streaming/replay subsystem's perf trajectory: `make bench` runs
// these (plus the engine benchmarks) with -benchmem and snapshots the
// numbers into BENCH_trace.json for future PRs to compare against.

// BenchmarkTraceIssue measures the simulator hot path alone: one Issue
// per iteration, no scanning, no result accounting. The accept path is
// 0 allocs/op (enforced by TestIssueZeroAllocs).
func BenchmarkTraceIssue(b *testing.B) {
	m, err := Build(Sample1GbDDR3())
	if err != nil {
		b.Fatal(err)
	}
	cmds := trace.RandomClosedPage(m, 1<<14, 0.5, 1)
	b.ReportAllocs()
	b.ResetTimer()
	s := trace.New(m)
	j := 0
	for i := 0; i < b.N; i++ {
		if j == len(cmds) {
			s = trace.New(m) // fresh timing state; amortized over 49k issues
			j = 0
		}
		if err := s.Issue(cmds[j]); err != nil {
			b.Fatal(err)
		}
		j++
	}
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "cmds/s")
}

// BenchmarkTraceScan measures streaming ingestion alone: tokenizing and
// decoding trace text without simulating it. MB/s comes from SetBytes.
func BenchmarkTraceScan(b *testing.B) {
	m, err := Build(Sample1GbDDR3())
	if err != nil {
		b.Fatal(err)
	}
	cmds := trace.RandomClosedPage(m, 1<<13, 0.5, 1)
	var buf bytes.Buffer
	if err := trace.WriteTrace(&buf, cmds); err != nil {
		b.Fatal(err)
	}
	data := buf.Bytes()
	b.SetBytes(int64(len(data)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sc := trace.NewScanner(bytes.NewReader(data))
		n := 0
		for sc.Scan() {
			n++
		}
		if err := sc.Err(); err != nil || n != len(cmds) {
			b.Fatalf("scanned %d/%d commands: %v", n, len(cmds), err)
		}
	}
	b.ReportMetric(float64(len(cmds))*float64(b.N)/b.Elapsed().Seconds(), "cmds/s")
}

// BenchmarkTraceScanBinary measures binary (dtb) ingestion alone:
// decoding the packed varint encoding without simulating it, the
// counterpart of BenchmarkTraceScan. MB/s comes from SetBytes — note the
// binary trace is ~5x smaller than the same commands as text.
func BenchmarkTraceScanBinary(b *testing.B) {
	m, err := Build(Sample1GbDDR3())
	if err != nil {
		b.Fatal(err)
	}
	cmds := trace.RandomClosedPage(m, 1<<13, 0.5, 1)
	var buf bytes.Buffer
	if err := trace.WriteBinaryTrace(&buf, cmds); err != nil {
		b.Fatal(err)
	}
	data := buf.Bytes()
	b.SetBytes(int64(len(data)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sc := trace.NewBinaryScanner(bytes.NewReader(data))
		n := 0
		for sc.Scan() {
			n++
		}
		if err := sc.Err(); err != nil || n != len(cmds) {
			b.Fatalf("scanned %d/%d commands: %v", n, len(cmds), err)
		}
	}
	b.ReportMetric(float64(len(cmds))*float64(b.N)/b.Elapsed().Seconds(), "cmds/s")
}

// BenchmarkTraceScanBatchBinary measures the dtb decoder that replay runs
// on its producer goroutine, BinaryScanner.ScanBatch, over the
// BenchmarkTraceScanBinary trace. On the sample device every slot delta,
// bank and row fits the batch decoder's two-byte fast path.
func BenchmarkTraceScanBatchBinary(b *testing.B) { benchScanBatch(b, 13) }

// BenchmarkTraceScanBatchBinaryWideRows is BenchmarkTraceScanBatchBinary
// on the sample device widened to 16 row address bits, as on larger
// parts: seven rows in eight need three bytes and leave the fast path.
func BenchmarkTraceScanBatchBinaryWideRows(b *testing.B) { benchScanBatch(b, 16) }

func benchScanBatch(b *testing.B, rowBits int) {
	b.Helper()
	d := Sample1GbDDR3()
	d.Spec.RowAddrBits = rowBits
	m, err := Build(d)
	if err != nil {
		b.Fatal(err)
	}
	cmds := trace.RandomClosedPage(m, 1<<13, 0.5, 1)
	var buf bytes.Buffer
	if err := trace.WriteBinaryTrace(&buf, cmds); err != nil {
		b.Fatal(err)
	}
	data := buf.Bytes()
	slab := make([]trace.Command, 1<<12)
	b.SetBytes(int64(len(data)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sc := trace.NewBinaryScanner(bytes.NewReader(data))
		n := 0
		for {
			k := sc.ScanBatch(slab)
			n += k
			if k < len(slab) {
				break
			}
		}
		if err := sc.Err(); err != nil || n != len(cmds) {
			b.Fatalf("scanned %d/%d commands: %v", n, len(cmds), err)
		}
	}
	b.ReportMetric(float64(len(cmds))*float64(b.N)/b.Elapsed().Seconds(), "cmds/s")
}

// replayBenchAccesses sizes the replay benchmarks' traces: three
// commands per access, so ~60k commands, about two 32k-command replay
// rounds.
const replayBenchAccesses = 20000

// benchTraceReplay measures the full streaming replay pipeline — scan,
// shard, simulate, merge — over a generated multi-channel closed-page
// trace of the given number of accesses, rendered as text or dtb binary.
// cmds/s counts commands through the whole pipeline; MB/s is the trace
// ingestion rate.
func benchTraceReplay(b *testing.B, channels, workers int, binary bool, accesses int) {
	b.Helper()
	m, err := Build(Sample1GbDDR3())
	if err != nil {
		b.Fatal(err)
	}
	per := make([][]trace.Command, channels)
	for ch := range per {
		per[ch] = trace.RandomClosedPage(m, accesses/channels, 0.5, int64(ch+1))
	}
	var buf bytes.Buffer
	cmds := trace.Interleave(per, m.D.Spec.Banks())
	write := trace.WriteTrace
	if binary {
		write = trace.WriteBinaryTrace
	}
	if err := write(&buf, cmds); err != nil {
		b.Fatal(err)
	}
	data := buf.Bytes()
	b.SetBytes(int64(len(data)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := trace.Replay(m, bytes.NewReader(data),
			trace.ReplayOptions{Channels: channels, Workers: workers})
		if err != nil {
			b.Fatal(err)
		}
		if res.Bits == 0 {
			b.Fatal("replay moved no data")
		}
	}
	b.ReportMetric(float64(len(cmds))*float64(b.N)/b.Elapsed().Seconds(), "cmds/s")
}

// BenchmarkTraceReplay1Ch is the single-channel, single-worker baseline —
// the serial streaming path over trace text.
func BenchmarkTraceReplay1Ch(b *testing.B) { benchTraceReplay(b, 1, 1, false, replayBenchAccesses) }

// BenchmarkTraceReplay8Ch1Worker replays an 8-channel text trace
// serially: the fair denominator for the parallel speedup.
func BenchmarkTraceReplay8Ch1Worker(b *testing.B) {
	benchTraceReplay(b, 8, 1, false, replayBenchAccesses)
}

// BenchmarkTraceReplay8Ch replays an 8-channel text trace with one worker
// per CPU; on a 4+ core machine this shows the multi-channel speedup over
// BenchmarkTraceReplay8Ch1Worker.
func BenchmarkTraceReplay8Ch(b *testing.B) { benchTraceReplay(b, 8, 0, false, replayBenchAccesses) }

// BenchmarkTraceReplay1ChBinary replays the single-channel workload from
// the dtb binary encoding: the decode cost drops out of the text
// tokenizer's ~65ns/cmd into the varint decoder's ~10ns/cmd.
func BenchmarkTraceReplay1ChBinary(b *testing.B) {
	benchTraceReplay(b, 1, 1, true, replayBenchAccesses)
}

// BenchmarkTraceReplay8ChBinary is the headline ingest benchmark: an
// 8-channel replay fed from dtb binary input through the pipelined
// decoder (ISSUE 7 target: ≥3x the committed text-input cmds/s).
func BenchmarkTraceReplay8ChBinary(b *testing.B) {
	benchTraceReplay(b, 8, 0, true, replayBenchAccesses)
}

// BenchmarkTraceReplay8ChBinaryLong is BenchmarkTraceReplay8ChBinary at
// ten times the length, ~600k commands or 18 rounds: long enough for the
// decoder goroutine and the issuing side to overlap for most of the run,
// which two rounds are not.
func BenchmarkTraceReplay8ChBinaryLong(b *testing.B) {
	benchTraceReplay(b, 8, 0, true, 10*replayBenchAccesses)
}

// benchSchedule measures the memory-controller front-end: scheduling a
// pre-generated in-memory access stream into a legal command trace under
// the given page policy. req/s counts access requests through the
// scheduler (the ISSUE 8 target is >= 1M req/s); cmds/s the commands it
// emits.
func benchSchedule(b *testing.B, opts ctl.Options) {
	b.Helper()
	m, err := Build(Sample1GbDDR3())
	if err != nil {
		b.Fatal(err)
	}
	reqs, err := ctl.GenerateAccesses(m, ctl.GenOptions{
		N: 1 << 14, RowHit: 0.7, ReadShare: 0.7, Gap: 4, Seed: 1,
		Channels: opts.Channels,
	})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	var emitted int64
	for i := 0; i < b.N; i++ {
		cmds, stats, err := ctl.ScheduleRequests(m, reqs, opts)
		if err != nil {
			b.Fatal(err)
		}
		if len(cmds) == 0 || stats.Requests != int64(len(reqs)) {
			b.Fatalf("scheduled %d commands for %d requests", len(cmds), stats.Requests)
		}
		emitted = stats.Commands
	}
	b.ReportMetric(float64(len(reqs))*float64(b.N)/b.Elapsed().Seconds(), "req/s")
	b.ReportMetric(float64(emitted)*float64(b.N)/b.Elapsed().Seconds(), "cmds/s")
}

// BenchmarkScheduleOpen schedules a 70%-locality stream open-page: the
// fast path is one column command per row hit.
func BenchmarkScheduleOpen(b *testing.B) {
	benchSchedule(b, ctl.Options{Policy: ctl.PolicyOpen})
}

// BenchmarkScheduleClosed schedules the same stream closed-page: every
// request emits the full ACT/column/PRE triple.
func BenchmarkScheduleClosed(b *testing.B) {
	benchSchedule(b, ctl.Options{Policy: ctl.PolicyClosed})
}

// BenchmarkScheduleTimeout schedules the stream under the timeout
// policy plus the power-down inserter. On one channel at gap 4 every
// bank is used again within 64 slots, so the expiry sweep runs on every
// request but never closes a bank; BenchmarkScheduleTimeout4Ch is the
// shape where it does.
func BenchmarkScheduleTimeout(b *testing.B) {
	benchSchedule(b, ctl.Options{Policy: ctl.PolicyTimeout, PageTimeout: 64, PowerDownAfter: 32})
}

// BenchmarkScheduleTimeout4Ch spreads the timeout-policy stream over four
// channels, serially: each channel sees a request every 16 slots, so
// about half the requests find a bank past its 64-slot window and the
// sweep closes it (0.49 timeout precharges per request, the shape of
// perfbench's schedule-replay workload).
func BenchmarkScheduleTimeout4Ch(b *testing.B) {
	benchSchedule(b, ctl.Options{Policy: ctl.PolicyTimeout, PageTimeout: 64, PowerDownAfter: 16, Channels: 4, Workers: 1})
}

// BenchmarkSchedule4Ch spreads the stream over four channels (open
// page): per-channel state is independent, so the mapper and the merge
// are the only cross-channel costs. Workers is pinned to 1 so this stays
// the serial baseline that BenchmarkSchedule4ChParallel is gated against.
func BenchmarkSchedule4Ch(b *testing.B) {
	benchSchedule(b, ctl.Options{Policy: ctl.PolicyOpen, Channels: 4, Workers: 1})
}

// BenchmarkSchedule4ChParallel schedules the same four-channel stream
// with one worker per CPU: each channel's scheduler runs as an
// independent job, so on a 4+ core machine req/s approaches 4x the
// serial BenchmarkSchedule4Ch (the ISSUE 10 target is >= 3x). On a
// single-core machine the engine falls back to the serial loop and the
// two benchmarks coincide.
func BenchmarkSchedule4ChParallel(b *testing.B) {
	benchSchedule(b, ctl.Options{Policy: ctl.PolicyOpen, Channels: 4, Workers: 0})
}

// BenchmarkScheduleLong8Ch schedules perfbench replay-dtb's set-up input
// shape: 600k requests (50% row locality, one every 6 slots) over eight
// channels, closed page, power-down after 8 idle slots, serially. At
// about 2.1M commands the result is the only O(trace) buffer, and the
// merge of the eight channels runs once per round while the round is in
// cache; B/op shows the one buffer.
func BenchmarkScheduleLong8Ch(b *testing.B) {
	m, err := Build(Sample1GbDDR3())
	if err != nil {
		b.Fatal(err)
	}
	opts := ctl.Options{Policy: ctl.PolicyClosed, Channels: 8, PowerDownAfter: 8, Workers: 1}
	reqs, err := ctl.GenerateAccesses(m, ctl.GenOptions{
		N: 600_000, RowHit: 0.5, ReadShare: 0.7, Gap: 6, Seed: 1, Channels: opts.Channels,
	})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	var emitted int64
	for i := 0; i < b.N; i++ {
		cmds, stats, err := ctl.ScheduleRequests(m, reqs, opts)
		if err != nil {
			b.Fatal(err)
		}
		if int64(len(cmds)) != stats.Commands || stats.Requests != int64(len(reqs)) {
			b.Fatalf("scheduled %d commands (%d counted) for %d requests", len(cmds), stats.Commands, stats.Requests)
		}
		emitted = stats.Commands
	}
	b.ReportMetric(float64(len(reqs))*float64(b.N)/b.Elapsed().Seconds(), "req/s")
	b.ReportMetric(float64(emitted)*float64(b.N)/b.Elapsed().Seconds(), "cmds/s")
}

// benchScheduleReplay measures schedule→replay end to end over a
// four-channel closed-page stream (every request emits its full command
// triple, so the replayer sees the heaviest command flow per request).
// fused=true streams per-channel batches straight into the replayer
// (ctl.ScheduleReplayRequests); fused=false materializes the merged
// trace and replays it — the B/op gap between the two is the pipeline's
// memory win (ISSUE 10 target: fused <= 1/10 of two-phase).
func benchScheduleReplay(b *testing.B, fused bool) {
	b.Helper()
	m, err := Build(Sample1GbDDR3())
	if err != nil {
		b.Fatal(err)
	}
	opts := ctl.Options{Policy: ctl.PolicyClosed, Channels: 4, Workers: 1}
	reqs, err := ctl.GenerateAccesses(m, ctl.GenOptions{
		N: 1 << 14, RowHit: 0.7, ReadShare: 0.7, Gap: 4, Seed: 1,
		Channels: opts.Channels,
	})
	if err != nil {
		b.Fatal(err)
	}
	ropts := trace.ReplayOptions{Channels: opts.Channels, Workers: 1}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var res trace.Result
		if fused {
			_, res, err = ctl.ScheduleReplayRequests(m, reqs, opts, ropts)
			if err != nil {
				b.Fatal(err)
			}
		} else {
			cmds, _, serr := ctl.ScheduleRequests(m, reqs, opts)
			if serr != nil {
				b.Fatal(serr)
			}
			rep := trace.NewReplayer(m, ropts)
			if err := rep.ReplaySource(trace.NewSliceSource(cmds)); err != nil {
				b.Fatal(err)
			}
			res = rep.Result(rep.Now() + int64(m.BurstSlots()))
		}
		if res.Bits == 0 {
			b.Fatal("replay moved no data")
		}
	}
	b.ReportMetric(float64(len(reqs))*float64(b.N)/b.Elapsed().Seconds(), "req/s")
}

// BenchmarkScheduleReplayFused is the streaming pipeline: per-channel
// command batches flow from the scheduler into the replayer through a
// recycled double-buffered ring, never materializing the merged trace.
func BenchmarkScheduleReplayFused(b *testing.B) { benchScheduleReplay(b, true) }

// BenchmarkScheduleReplayTwoPhase is the materializing denominator:
// schedule the full trace, then replay it.
func BenchmarkScheduleReplayTwoPhase(b *testing.B) { benchScheduleReplay(b, false) }

// BenchmarkScheduleScanAccess measures access-trace ingestion alone:
// parsing the .dab text format without scheduling it.
func BenchmarkScheduleScanAccess(b *testing.B) {
	m, err := Build(Sample1GbDDR3())
	if err != nil {
		b.Fatal(err)
	}
	reqs, err := ctl.GenerateAccesses(m, ctl.GenOptions{
		N: 1 << 13, RowHit: 0.7, ReadShare: 0.7, Gap: 4, Seed: 1,
	})
	if err != nil {
		b.Fatal(err)
	}
	var buf bytes.Buffer
	if err := ctl.WriteAccessTrace(&buf, reqs); err != nil {
		b.Fatal(err)
	}
	data := buf.Bytes()
	b.SetBytes(int64(len(data)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sc := ctl.NewScanner(bytes.NewReader(data))
		n := 0
		for sc.Scan() {
			n++
		}
		if err := sc.Err(); err != nil || n != len(reqs) {
			b.Fatalf("scanned %d/%d requests: %v", n, len(reqs), err)
		}
	}
	b.ReportMetric(float64(len(reqs))*float64(b.N)/b.Elapsed().Seconds(), "req/s")
}

// schedShapeRequests is an access stream of perfbench's schedule-replay
// shape on the sample device: 320,000 requests at row-hit 0.7, read share
// 0.7 and gap 4 over four channels, with the address mapper they were
// generated for.
func schedShapeRequests(b *testing.B) ([]ctl.Request, *ctl.Mapper) {
	b.Helper()
	m, err := Build(Sample1GbDDR3())
	if err != nil {
		b.Fatal(err)
	}
	const channels = 4
	reqs, err := ctl.GenerateAccesses(m, ctl.GenOptions{
		N: 320_000, RowHit: 0.7, ReadShare: 0.7, Gap: 4, Seed: 1, Channels: channels,
	})
	if err != nil {
		b.Fatal(err)
	}
	mp, err := ctl.MapperFor(m, channels, ctl.DefaultMap)
	if err != nil {
		b.Fatal(err)
	}
	return reqs, mp
}

// BenchmarkScheduleScanAccessBinary measures .dab ingestion alone at
// schedule-replay's shape: BinaryScanner.Scan request by request, as the
// scheduling pipeline's producer calls it. Slot deltas take one byte and
// nearly every address delta four, so a record is ~6 bytes.
func BenchmarkScheduleScanAccessBinary(b *testing.B) {
	reqs, _ := schedShapeRequests(b)
	var buf bytes.Buffer
	if err := ctl.WriteBinaryAccessTrace(&buf, reqs); err != nil {
		b.Fatal(err)
	}
	data := buf.Bytes()
	b.SetBytes(int64(len(data)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sc := ctl.NewBinaryScanner(bytes.NewReader(data))
		n := 0
		for sc.Scan() {
			n++
		}
		if err := sc.Err(); err != nil || n != len(reqs) {
			b.Fatalf("scanned %d/%d requests: %v", n, len(reqs), err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(len(reqs)), "ns/req")
}

// BenchmarkScheduleMap measures Mapper.Map alone over the same stream:
// the range check and field extraction the scheduler runs per request.
func BenchmarkScheduleMap(b *testing.B) {
	reqs, mp := schedShapeRequests(b)
	b.ReportAllocs()
	b.ResetTimer()
	var sink ctl.Coord
	for i := 0; i < b.N; i++ {
		for _, q := range reqs {
			co, err := mp.Map(q.Addr)
			if err != nil {
				b.Fatal(err)
			}
			sink.Row ^= co.Row
			sink.Col ^= co.Col
		}
	}
	mapSink = sink
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(len(reqs)), "ns/req")
}

// mapSink keeps BenchmarkScheduleMap's results live.
var mapSink ctl.Coord

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
