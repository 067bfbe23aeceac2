// Command dramtrace replays DRAM command traces against the power model
// and reports the integrated energy accounting. Traces stream through a
// fixed buffer, so multi-gigabyte files replay in constant memory; a
// multi-channel trace (global bank indices spanning several devices) is
// sharded across one simulator per channel and replayed concurrently.
//
// Usage:
//
//	dramtrace trace.txt                      # replay a trace file
//	dramtrace < trace.txt                    # ... or stdin
//	dramtrace -channels 8 -workers 8 t.txt   # 8-channel parallel replay
//	dramtrace -format json t.txt             # machine-readable result
//	dramtrace -desc device.dram t.txt        # replay against a description
//	dramtrace -calib measured.calib t.txt    # replay a calibrated model
//	dramtrace -gen closed -n 100000          # emit a generated trace
//	dramtrace -gen streaming -channels 4 -n 1000000 | dramtrace -channels 4
//	dramtrace -gen refresh -idle 1 -n 1000   # power-down in every idle gap
//	dramtrace -gen mixed -rowhit 0.8         # controller-scheduled locality mix
//	dramtrace -gen closed -format binary > t.dtb   # generate dtb binary
//	dramtrace -convert binary t.txt > t.dtb  # text -> dtb binary
//	dramtrace -convert text t.dtb            # dtb binary -> text
//
// The text trace format is one command per line, `<slot> <op> [<bank>
// [<row>]]`, '#' comments; ops are the pattern mnemonics act, pre, rd,
// wrt, nop, ref plus the power-state commands pde, pdx, sre, srx
// (power-down / self-refresh entry and exit). Traces may equivalently be
// stored in the compact dtb binary encoding (see the README's "Binary
// trace format" section); replay input auto-detects the encoding from
// the first byte, -convert translates between the two, and `-gen -format
// binary` emits dtb directly. With -gen, -n sets the approximate command
// count and the trace is written to stdout instead of replaying; -idle N
// additionally parks the device in precharge power-down during every
// idle gap of at least N slots (1 = every gap that fits a legal
// power-down window). The streaming and closed kinds sit at the locality
// extremes (every access hits its row / no access does); `-gen mixed`
// fills the middle by scheduling a synthetic access stream through the
// open-page memory controller, with -rowhit setting the probability a
// request reuses its bank's open row (default 0.5; see dramctl for the
// full controller front-end).
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"time"

	"drampower"
	"drampower/internal/cli"
	"drampower/internal/server"
	"drampower/internal/trace"
)

func main() { os.Exit(run(os.Args[1:], os.Stdin, os.Stdout, os.Stderr)) }

// run runs dramtrace on args and returns its exit status.
func run(args []string, stdin io.Reader, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("dramtrace", flag.ContinueOnError)
	src := cli.NewSource(fs, "desc", false)
	channels := fs.Int("channels", 1, "number of channels the trace's global bank indices span")
	var workers int
	cli.WorkersVar(fs, &workers, "the replay")
	format := cli.FormatVar(fs)
	convert := fs.String("convert", "", "convert the input trace to the given encoding (text or binary) on stdout instead of replaying")
	gen := fs.String("gen", "", "generate a trace to stdout instead of replaying: streaming, closed, refresh or mixed")
	n := fs.Int("n", 100000, "approximate command count for -gen")
	readShare := fs.Float64("readshare", 0.7, "read share of generated column commands")
	rowhit := fs.Float64("rowhit", 0.5, "with -gen mixed: probability an access reuses its bank's open row, in [0,1]")
	seed := fs.Int64("seed", 1, "base RNG seed for -gen")
	idle := fs.Int64("idle", 0, "with -gen: enter power-down in idle gaps of at least this many slots (0 = never)")
	calib := cli.OverlayVar(fs)
	prof := cli.ProfileVars(fs)
	return cli.Run(fs, args, stderr, func() error {
		return prof.Run(func() error {
			// -format binary selects the dtb trace encoding for -gen
			// output; the replay report itself is text or json.
			if *format == "binary" {
				if *gen == "" {
					return fmt.Errorf("-format binary only applies to -gen output (use -convert binary to re-encode a trace)")
				}
			} else if err := cli.CheckFormat(*format); err != nil {
				return err
			}
			if _, err := server.ParseChannels(strconv.Itoa(*channels)); err != nil {
				return err
			}

			if *convert != "" {
				in, name, err := cli.Input(fs, stdin)
				if err != nil {
					return err
				}
				defer in.Close()
				return cli.InputErr(name, convertTrace(stdout, in, *convert))
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

			if *gen != "" {
				return generate(stdout, m, *gen, *channels, *n, *readShare, *rowhit, *seed, *idle, *format == "binary")
			}

			in, name, err := cli.Input(fs, stdin)
			if err != nil {
				return err
			}
			defer in.Close()
			cr := &countingReader{r: in}
			start := time.Now()
			res, err := drampower.ReplayTrace(m, cr, drampower.ReplayOptions{Channels: *channels, Workers: workers})
			if err != nil {
				return cli.InputErr(name, err)
			}
			wall := time.Since(start)
			r := report{TraceResponse: server.TraceResponseFor(res, server.CalibratedKey(d, ov), *channels)}
			r.Calibrated = m.Calibrated()
			r.Run.Workers, r.Run.TraceBytes, r.Run.WallSeconds = workers, cr.n, wall.Seconds()
			if s := wall.Seconds(); s > 0 {
				r.Run.CommandsPerSecond = float64(r.Commands) / s
				r.Run.MBPerSecond = float64(cr.n) / 1e6 / s
			}
			return r.write(stdout, *format)
		})
	})
}

// convertTrace streams the input trace (either encoding, sniffed) to w
// in the requested encoding. No model is involved: conversion re-encodes
// the command stream verbatim, without timing checks.
func convertTrace(w io.Writer, in io.Reader, out string) error {
	src := drampower.NewTraceSource(in)
	switch out {
	case "text":
		bw := bufio.NewWriter(w)
		var line []byte
		for src.Scan() {
			line = trace.AppendCommand(line[:0], src.Command())
			if _, err := bw.Write(line); err != nil {
				return err
			}
		}
		if err := src.Err(); err != nil {
			return err
		}
		return bw.Flush()
	case "binary":
		bw := drampower.NewBinaryTraceWriter(w)
		for src.Scan() {
			if err := bw.WriteCommand(src.Command()); err != nil {
				return err
			}
		}
		if err := src.Err(); err != nil {
			return err
		}
		return bw.Flush()
	default:
		return fmt.Errorf("bad -convert %q (want text or binary)", out)
	}
}

// generate writes a synthetic trace to w: per-channel workloads from the
// generators in internal/trace, optionally parked in power-down during
// idle gaps (-idle), interleaved into one global-bank trace, in the text
// or (with -format binary) the dtb binary encoding. The mixed kind
// instead drives the controller front-end: a random access stream with
// -rowhit row locality, scheduled open-page into a legal trace.
func generate(w io.Writer, m *drampower.Model, kind string, channels, n int, readShare, rowhit float64, seed, idle int64, binary bool) error {
	if kind == "mixed" {
		if idle > 0 {
			return fmt.Errorf("-idle does not apply to -gen mixed (schedule with dramctl -pd-timeout instead)")
		}
		// A hit emits one command, a miss or conflict up to three; size the
		// request count so the output lands near -n commands.
		reqs := int(float64(n) / (1 + 2*(1-rowhit)))
		if reqs < 1 {
			reqs = 1
		}
		accesses, err := drampower.GenerateAccesses(m, drampower.AccessGenOptions{
			N: reqs, RowHit: rowhit, ReadShare: readShare,
			Gap: int64(m.BurstSlots()), Seed: uint64(seed), Channels: channels,
		})
		if err != nil {
			return err
		}
		cmds, _, err := drampower.ScheduleAccesses(m, accesses, drampower.ControllerOptions{Channels: channels})
		if err != nil {
			return err
		}
		if binary {
			return drampower.WriteBinaryTrace(w, cmds)
		}
		return drampower.WriteTrace(w, cmds)
	}
	perChannel := (n + channels - 1) / channels
	chans := make([][]drampower.Command, channels)
	for ch := range chans {
		s := seed + int64(ch)
		switch kind {
		case "streaming":
			chans[ch] = trace.Streaming(m, perChannel, readShare, s)
		case "closed":
			// Three commands (act/col/pre) per access.
			chans[ch] = trace.RandomClosedPage(m, (perChannel+2)/3, readShare, s)
		case "refresh":
			chans[ch] = trace.RefreshOnly(m, perChannel)
		default:
			return fmt.Errorf("bad -gen %q (want streaming, closed, refresh or mixed)", kind)
		}
		if idle > 0 {
			// The insertion policy runs per channel: power-down legality
			// (banks closed, refresh complete) is a per-device property.
			chans[ch] = trace.WithPowerDown(m, chans[ch], idle)
		}
	}
	cmds := drampower.InterleaveChannels(chans, m.D.Spec.Banks())
	if binary {
		return drampower.WriteBinaryTrace(w, cmds)
	}
	return drampower.WriteTrace(w, cmds)
}

// countingReader counts the trace bytes consumed, for throughput
// reporting.
type countingReader struct {
	r io.Reader
	n int64
}

func (c *countingReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.n += int64(n)
	return n, err
}

// report is a replay's report: the /v1/trace body for the same trace and
// model, which -format json prints with the numbers of this run added as
// "run".
type report struct {
	server.TraceResponse
	Run struct {
		Workers           int     `json:"workers"`
		TraceBytes        int64   `json:"trace_bytes"`
		WallSeconds       float64 `json:"wall_seconds"`
		CommandsPerSecond float64 `json:"commands_per_second"`
		MBPerSecond       float64 `json:"mb_per_second"`
	} `json:"run"`
}

// write prints the report to w as text or (format "json") indented JSON.
func (r *report) write(w io.Writer, format string) error {
	if format == "json" {
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		return enc.Encode(r)
	}
	fmt.Fprintf(w, "replayed %d commands over %d channel(s): %d slots (%.3f ms simulated)\n",
		r.Commands, r.Channels, r.Slots, r.DurationSeconds*1e3)
	fmt.Fprintf(w, "  counts:          %v\n", r.Counts)
	fmt.Fprintf(w, "  command energy:  %.4g J\n", r.CommandEnergyJ)
	fmt.Fprintf(w, "  background:      %.4g J\n", r.BackgroundJ)
	fmt.Fprintf(w, "  total:           %.4g J  (%.1f mW avg, %.1f mA avg)\n",
		r.TotalJ, r.AveragePowerW*1e3, r.AverageCurrentA*1e3)
	fmt.Fprintf(w, "  data:            %d bits, %.2f pJ/bit, bus utilization %.2f\n",
		r.Bits, r.EnergyPerBitPJ, r.BusUtilization)
	totalStateSlots := r.ActiveSlots + r.PrechargedSlots + r.PowerDownSlots + r.SelfRefreshSlots
	if totalStateSlots > 0 {
		pct := func(s int64) float64 { return 100 * float64(s) / float64(totalStateSlots) }
		fmt.Fprintf(w, "  residency:       active %.1f%%, precharged %.1f%%, power-down %.1f%%, self-refresh %.1f%%\n",
			pct(r.ActiveSlots), pct(r.PrechargedSlots), pct(r.PowerDownSlots), pct(r.SelfRefreshSlots))
		fmt.Fprintf(w, "  bg by state:     %.4g / %.4g / %.4g / %.4g J\n",
			r.ActiveBgJ, r.PrechargedBgJ, r.PowerDownBgJ, r.SelfRefreshBgJ)
	}
	fmt.Fprintf(w, "  throughput:      %.2f Mcmd/s, %.1f MB/s (%.3f s wall)\n",
		r.Run.CommandsPerSecond/1e6, r.Run.MBPerSecond, r.Run.WallSeconds)
	return nil
}
