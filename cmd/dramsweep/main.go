// Command dramsweep regenerates the power-sensitivity Pareto of
// Section IV.B of the paper: Figure 10 (change of power consumption per
// ±20 % parameter variation) and Table III (the top-10 ranking for the
// 128M SDR 170nm, 2G DDR3 55nm and 16G DDR5 18nm devices).
//
// Usage:
//
//	dramsweep                 # Figure 10 bars for the three paper devices
//	dramsweep -top10          # Table III
//	dramsweep -node 55        # a single node
//	dramsweep -f device.dram  # sweep a description file
//	dramsweep -f device.dram -calib measured.calib  # ... with a calibration overlay
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"drampower/internal/cli"
	"drampower/internal/desc"
	"drampower/internal/engine"
	"drampower/internal/scaling"
	"drampower/internal/sensitivity"
)

var paperNodes = []float64{170, 55, 18}

func main() { os.Exit(run(os.Args[1:], os.Stdin, os.Stdout, os.Stderr)) }

// run runs dramsweep on args and returns its exit status.
func run(args []string, _ io.Reader, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("dramsweep", flag.ContinueOnError)
	src := cli.NewSource(fs, "f", true)
	top10 := fs.Bool("top10", false, "print Table III (top-10 ranking per device)")
	calib := cli.OverlayVar(fs)
	sw := sweeper{w: stdout}
	cli.WorkersVar(fs, &sw.batch.Workers, "the sweep")
	return cli.Run(fs, args, stderr, func() error {
		var err error
		if sw.overlay, err = cli.LoadOverlay(*calib); err != nil {
			return err
		}
		switch {
		case src.Explicit():
			d, err := src.Description()
			if err != nil {
				return err
			}
			// -top10 trims a node's sweep to ten rows; a file's is shown in full.
			return sw.sweepOne(src.Label(), d, *top10 && src.File() == "")
		case *top10:
			return sw.tableIII()
		default:
			for _, nm := range paperNodes {
				n, err := scaling.NodeFor(nm)
				if err != nil {
					return err
				}
				if err := sw.sweepOne(n.Name(), n.Description(), false); err != nil {
					return err
				}
			}
			return nil
		}
	})
}

// sweeper runs the sweeps of one invocation and prints them to w: batch
// carries the -workers flag to every sweep, and overlay the -calib flag
// (scaling entries ride on top of each variant, absolute overrides pin
// their parameter; see sensitivity.SweepCalibratedOpts).
type sweeper struct {
	w       io.Writer
	batch   engine.Options
	overlay *desc.Overlay
}

func (sw *sweeper) sweepOne(name string, d *desc.Description, top10 bool) error {
	if !sw.overlay.Empty() {
		name += " (calibrated)"
	}
	all, err := sensitivity.SweepCalibratedOpts(d, sw.overlay, sw.batch)
	if err != nil {
		return err
	}
	res := sensitivity.ChartRows(all)
	if top10 {
		res = sensitivity.Top(res, 10)
	}
	fmt.Fprintf(sw.w, "Figure 10: power change per ±20%% parameter variation — %s\n", name)
	fmt.Fprintf(sw.w, "  %-40s %7s %8s %8s\n", "parameter", "range", "+20%", "-20%")
	for _, r := range res {
		bar := strings.Repeat("#", int(r.RangePct/2+0.5))
		fmt.Fprintf(sw.w, "  %-40s %6.1f%% %+7.1f%% %+7.1f%%  %s\n",
			r.Name, r.RangePct, r.DeltaUpPct, r.DeltaDownPct, bar)
	}
	fmt.Fprintln(sw.w)
	return nil
}

func (sw *sweeper) tableIII() error {
	fmt.Fprintln(sw.w, "Table III: top 10 ranking of sensitivity to model parameters")
	type column struct {
		name string
		rows []string
	}
	var cols []column
	for _, nm := range paperNodes {
		n, err := scaling.NodeFor(nm)
		if err != nil {
			return err
		}
		all, err := sensitivity.SweepCalibratedOpts(n.Description(), sw.overlay, sw.batch)
		if err != nil {
			return err
		}
		res := sensitivity.ChartRows(all)
		c := column{name: n.Name()}
		for _, r := range sensitivity.Top(res, 10) {
			c.rows = append(c.rows, r.Name)
		}
		cols = append(cols, c)
	}
	fmt.Fprintf(sw.w, "%4s", "")
	for _, c := range cols {
		fmt.Fprintf(sw.w, " | %-38s", c.name)
	}
	fmt.Fprintln(sw.w)
	for i := 0; i < 10; i++ {
		fmt.Fprintf(sw.w, "%4d", i+1)
		for _, c := range cols {
			row := ""
			if i < len(c.rows) {
				row = c.rows[i]
			}
			fmt.Fprintf(sw.w, " | %-38s", row)
		}
		fmt.Fprintln(sw.w)
	}
	return nil
}
