// Command dramctl is the memory-controller front-end: it schedules an
// access trace (timestamped read/write requests against a flat physical
// address space) into a legal DRAM command trace, replays it against the
// power model, and reports the row-buffer outcomes alongside the energy
// accounting. It is the tool that answers the paper's controller-side
// questions — what a page policy, an address map or a power-down
// threshold costs in joules on a given request stream.
//
// Usage:
//
//	dramctl access.dab                         # schedule + replay, report energy
//	dramctl -policy closed access.txt          # closed-page policy
//	dramctl -policy timeout=64 -pd-timeout 32 access.txt
//	dramctl -map ro:ch:ba:co -channels 2 access.txt
//	dramctl -emit text access.txt > trace.txt  # emit the scheduled trace instead
//	dramctl -emit binary access.txt > t.dtb    # ... in dtb binary
//	dramctl -gen -n 100000 -rowhit 0.8 > a.dab # generate an access trace
//	dramctl -format json access.txt            # machine-readable report
//
// The access-trace text format is one request per line, `<slot> <r|w>
// <addr>` ('#' comments; rd/wr/read/write also accepted; decimal or 0x
// hex addresses). The equivalent .dab binary encoding is sniffed from
// the first byte, like dtb for command traces. -policy selects open,
// closed or timeout=N page management; -pd-timeout/-sr-after arm the
// power-down policy (enter precharge power-down / self-refresh once a
// channel has been idle with all banks closed that many slots). Refresh
// scheduling is on by default whenever the spec carries a refresh
// interval: an all-bank ref every tREFI per channel, postponed
// JEDEC-style while requests are in flight; -refresh-every overrides
// tREFI in slots, -max-postponed the postponement bound (default 8),
// and -no-refresh disables it (the report then shows the retention
// deadlines the trace missed). With -gen, a synthetic access stream is
// written to stdout instead (-rowhit sets the row-locality probability,
// -gap the arrival spacing).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"drampower"
	"drampower/internal/cli"
	"drampower/internal/ctl"
	"drampower/internal/server"
	"drampower/internal/trace"
)

func main() { os.Exit(run(os.Args[1:], os.Stdin, os.Stdout, os.Stderr)) }

// run runs dramctl on args and returns its exit status.
func run(args []string, stdin io.Reader, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("dramctl", flag.ContinueOnError)
	src := cli.NewSource(fs, "desc", false)
	policyFlag := fs.String("policy", "open", "page policy: open, closed or timeout=N (idle slots)")
	mapSpec := fs.String("map", drampower.DefaultAddressMap, "address interleave spec (fields ch, ba, ro, co joined by ':', MSB first)")
	channels := fs.Int("channels", 1, "number of channels the flat address space spreads over (power of two)")
	pdTimeout := fs.Int64("pd-timeout", 0, "enter precharge power-down after this many idle all-banks-closed slots (0 = never)")
	srAfter := fs.Int64("sr-after", 0, "prefer self-refresh for idle gaps at least this long (0 = never)")
	refreshEvery := fs.Int64("refresh-every", 0, "refresh interval tREFI in slots (0 = resolve from the spec)")
	maxPostponed := fs.Int("max-postponed", 0, "JEDEC refresh postponement bound (0 = default 8)")
	noRefresh := fs.Bool("no-refresh", false, "disable refresh scheduling (report the missed retention deadlines instead)")
	emit := fs.String("emit", "", "emit the scheduled command trace to stdout (text or binary) instead of replaying")
	var workers int
	cli.WorkersVar(fs, &workers, "the schedule+replay pipeline")
	format := cli.FormatVar(fs)
	prof := cli.ProfileVars(fs)
	gen := fs.Bool("gen", false, "generate a synthetic access trace to stdout instead of scheduling")
	n := fs.Int("n", 100000, "request count for -gen")
	rowhit := fs.Float64("rowhit", 0.5, "with -gen: probability a request reuses its bank's open row, in [0,1]")
	readShare := fs.Float64("readshare", 0.7, "with -gen: read share of generated requests")
	gap := fs.Int64("gap", 8, "with -gen: arrival spacing between requests in slots")
	seed := fs.Uint64("seed", 1, "with -gen: RNG seed")
	genFormat := fs.String("gen-format", "text", "with -gen: output encoding (text or binary)")
	calib := cli.OverlayVar(fs)
	return cli.Run(fs, args, stderr, func() error {
		if err := cli.CheckFormat(*format); err != nil {
			return err
		}
		if err := server.CheckChannels(*channels); err != nil {
			return err
		}
		return prof.Run(func() error {
			policy, pageTimeout, err := drampower.ParseControllerPolicy(*policyFlag)
			if err != nil {
				return err
			}
			d, err := src.Description()
			if err != nil {
				return err
			}
			ov, err := cli.LoadOverlay(*calib)
			if err != nil {
				return err
			}
			m, err := drampower.BuildCalibrated(d, ov)
			if err != nil {
				return err
			}

			if *gen {
				return generate(stdout, m, *n, *rowhit, *readShare, *gap, *seed, *mapSpec, *channels, *genFormat)
			}

			opts := drampower.ControllerOptions{
				Policy:           policy,
				PageTimeout:      pageTimeout,
				Map:              *mapSpec,
				Channels:         *channels,
				PowerDownAfter:   *pdTimeout,
				SelfRefreshAfter: *srAfter,
				RefreshEvery:     *refreshEvery,
				MaxPostponed:     *maxPostponed,
				DisableRefresh:   *noRefresh,
				Workers:          workers,
			}
			in, name, err := cli.Input(fs, stdin)
			if err != nil {
				return err
			}
			defer in.Close()
			start := time.Now()

			// -emit writes the merged trace round by round as it is
			// scheduled; the default replay path runs the fused
			// schedule→replay pipeline. Either way peak memory is a few
			// rounds of commands, not the whole command trace, and the
			// energy report is exactly what dramtrace would print for the
			// emitted trace.
			if *emit != "" {
				tw, ok := trace.NewWriter(stdout, *emit)
				if !ok {
					return fmt.Errorf("bad -emit %q (want text or binary)", *emit)
				}
				_, err := ctl.WriteSchedule(m, in, opts, tw)
				return cli.InputErr(name, err)
			}

			stats, res, err := drampower.ScheduleAndReplay(m, in, opts,
				drampower.ReplayOptions{Workers: workers})
			if err != nil {
				return cli.InputErr(name, err)
			}
			wall := time.Since(start)
			r := report{ScheduleResponse: server.ScheduleResponseFor(stats, res, server.CalibratedKey(d, ov),
				opts.Channels, opts.PolicySpec(), opts.MapSpec())}
			r.Calibrated = m.Calibrated()
			r.Run.Workers, r.Run.WallSeconds = workers, wall.Seconds()
			if s := wall.Seconds(); s > 0 {
				r.Run.RequestsPerSecond = float64(stats.Requests) / s
			}
			return r.write(stdout, *format)
		})
	})
}

// generate writes a synthetic access trace to w.
func generate(w io.Writer, m *drampower.Model, n int, rowhit, readShare float64, gap int64, seed uint64, mapSpec string, channels int, format string) error {
	reqs, err := drampower.GenerateAccesses(m, drampower.AccessGenOptions{
		N: n, RowHit: rowhit, ReadShare: readShare, Gap: gap, Seed: seed,
		Map: mapSpec, Channels: channels,
	})
	if err != nil {
		return err
	}
	switch format {
	case "text":
		return drampower.WriteAccessTrace(w, reqs)
	case "binary":
		return drampower.WriteBinaryAccessTrace(w, reqs)
	default:
		return fmt.Errorf("bad -gen-format %q (want text or binary)", format)
	}
}

// report is a scheduling run's report: the /v1/schedule body for the
// same access trace, model and controller options, which -format json
// prints with the numbers of this run added as "run". Scheduling and
// replay run fused (overlapped), so the run has one wall time.
type report struct {
	server.ScheduleResponse
	Run struct {
		Workers           int     `json:"workers"`
		WallSeconds       float64 `json:"wall_seconds"`
		RequestsPerSecond float64 `json:"requests_per_second"`
	} `json:"run"`
}

// write prints the report to w as text or (format "json") indented JSON.
func (r *report) write(w io.Writer, format string) error {
	if format == "json" {
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		return enc.Encode(r)
	}
	st := &r.Schedule
	fmt.Fprintf(w, "scheduled %d requests (%d rd, %d wr) -> %d commands over %d channel(s), policy %s, map %s\n",
		st.Requests, st.Reads, st.Writes, st.Commands, r.Channels, r.Policy, r.Map)
	fmt.Fprintf(w, "  row buffer:      %.1f%% hits (%d hit / %d miss / %d conflict)\n",
		100*r.RowHitRate, st.RowHits, st.RowMisses, st.RowConflicts)
	if st.TimeoutPrecharges > 0 {
		fmt.Fprintf(w, "  page timeout:    %d precharges\n", st.TimeoutPrecharges)
	}
	if st.PowerDowns+st.SelfRefreshes > 0 {
		fmt.Fprintf(w, "  low power:       %d power-down, %d self-refresh entries (%d + %d slots resident)\n",
			st.PowerDowns, st.SelfRefreshes, r.PowerDownSlots, r.SelfRefreshSlots)
	}
	if st.Refreshes > 0 {
		fmt.Fprintf(w, "  refresh:         %d issued (%d postponed, %d forced), max interval %d slots\n",
			st.Refreshes, st.PostponedRefreshes, st.ForcedRefreshes, r.MaxRefreshIntervalSlots)
	}
	if r.MissedRefreshDeadlines > 0 {
		fmt.Fprintf(w, "  retention:       %d missed tREFI deadlines\n", r.MissedRefreshDeadlines)
	}
	fmt.Fprintf(w, "  trace:           %d slots (%.3f ms simulated)\n", r.Slots, r.DurationSeconds*1e3)
	fmt.Fprintf(w, "  command energy:  %.4g J\n", r.CommandEnergyJ)
	fmt.Fprintf(w, "  background:      %.4g J\n", r.BackgroundJ)
	fmt.Fprintf(w, "  total:           %.4g J  (%.1f mW avg, %.2f pJ/bit)\n",
		r.TotalJ, r.AveragePowerW*1e3, r.EnergyPerBitPJ)
	fmt.Fprintf(w, "  throughput:      %.2f Mreq/s scheduled+replayed (%.3f s wall)\n",
		r.Run.RequestsPerSecond/1e6, r.Run.WallSeconds)
	return nil
}
