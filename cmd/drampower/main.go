// Command drampower evaluates a DRAM description: it parses a .dram input
// file (or uses the built-in 1 Gb DDR3 sample), runs the power engine and
// prints the per-operation energies, the datasheet-style IDD currents, the
// pattern power and the component breakdown — the outputs of the program
// flow in Figure 4 of the paper.
//
// Usage:
//
//	drampower [-f device.dram] [-pattern "act nop rd nop pre nop"] [-v]
//	drampower -f device.dram -calib measured.calib   # with a calibration overlay
//	drampower -params      # list all Table I technology parameters
//	drampower -emit        # print the sample description in the input language
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"sort"

	"drampower/internal/circuits"
	"drampower/internal/cli"
	"drampower/internal/core"
	"drampower/internal/desc"
)

func main() { os.Exit(run(os.Args[1:], os.Stdin, os.Stdout, os.Stderr)) }

// run runs drampower on args and returns its exit status.
func run(args []string, _ io.Reader, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("drampower", flag.ContinueOnError)
	src := cli.NewSource(fs, "f", false)
	pattern := fs.String("pattern", "", "override the command pattern, e.g. \"act nop rd nop pre nop\"")
	verbose := fs.Bool("v", false, "print the full charge-item breakdown per operation")
	emit := fs.Bool("emit", false, "print the description in the input language and exit")
	params := fs.Bool("params", false, "list the technology parameter names (Table I) and exit")
	calib := cli.OverlayVar(fs)
	return cli.Run(fs, args, stderr, func() error {
		if *params {
			for _, n := range desc.TechnologyParameterNames() {
				fmt.Fprintln(stdout, n)
			}
			return nil
		}

		d, err := src.Description()
		if err != nil {
			return err
		}
		if *emit {
			fmt.Fprint(stdout, desc.Format(d))
			return nil
		}
		if *pattern != "" {
			loop, err := desc.ParsePattern(*pattern)
			if err != nil {
				return err
			}
			d.Pattern = desc.Pattern{Loop: loop}
		}

		ov, err := cli.LoadOverlay(*calib)
		if err != nil {
			return err
		}
		m, err := core.BuildCalibrated(d, ov)
		if err != nil {
			return err
		}
		report(stdout, m, *verbose)
		return nil
	})
}

func report(w io.Writer, m *core.Model, verbose bool) {
	d := m.D
	fmt.Fprintf(w, "Device: %s\n", d.Name)
	fmt.Fprintf(w, "  die %.1f x %.1f mm = %.1f mm², %d banks, page %d bits, %d sub-arrays/bank\n",
		m.Grid.Width.Micrometers()/1000, m.Grid.Height.Micrometers()/1000,
		float64(m.DieArea())/1e-6, d.Spec.Banks(), m.Array.PageBits,
		m.Array.SubarraysAlongBL*m.Array.SubarraysAlongWL)
	fmt.Fprintf(w, "  interface x%d @ %s, Vdd %s / Vint %s / Vbl %s / Vpp %s\n",
		d.Spec.IOWidth, d.Spec.DataRate, d.Electrical.Vdd, d.Electrical.Vint,
		d.Electrical.Vbl, d.Electrical.Vpp)
	if m.Calibrated() {
		name := m.CalibrationName()
		if name == "" {
			name = "unnamed"
		}
		fmt.Fprintf(w, "  calibration %q applied; energies and currents below are the resolved values\n", name)
	}
	fmt.Fprintln(w)

	// The headline numbers come from the resolved parameter set (derived
	// circuit values with any calibration overlay applied); the verbose
	// charge-item breakdown stays purely derived.
	fmt.Fprintln(w, "Per-operation energy (referred to Vdd):")
	for _, op := range []desc.Op{desc.OpActivate, desc.OpPrecharge, desc.OpRead,
		desc.OpWrite, desc.OpRefresh} {
		fmt.Fprintf(w, "  %-4s %10s", op, m.OpEnergy(op))
		if op == desc.OpRead || op == desc.OpWrite {
			perBit := float64(m.OpEnergy(op)) / float64(m.BitsPerBurst())
			fmt.Fprintf(w, "  (%5.2f pJ/bit over %d bits)", perBit/1e-12, m.BitsPerBurst())
		}
		fmt.Fprintln(w)
		if verbose {
			oc := m.Charges(op)
			for _, it := range oc.Items {
				v, _ := d.Electrical.DomainVoltageAndEff(it.Domain)
				fmt.Fprintf(w, "        %-32s %-9s %-5s x%-8.1f %10s\n",
					it.Name, it.Group, it.Domain, it.Events, it.Energy(v))
			}
		}
	}

	bg := m.Background()
	fmt.Fprintf(w, "\nBackground power: %s\n", m.BackgroundPower())
	if verbose {
		for _, it := range bg.Items {
			fmt.Fprintf(w, "        %-32s %-9s %10s\n", it.Name, it.Group, it.Power)
		}
	}

	idd := m.IDD()
	fmt.Fprintln(w, "\nDatasheet currents:")
	fmt.Fprintf(w, "  IDD0  %8.1f mA   (activate-precharge cycling)\n", idd.IDD0.Milliamps())
	fmt.Fprintf(w, "  IDD2N %8.1f mA   (precharge standby)\n", idd.IDD2N.Milliamps())
	fmt.Fprintf(w, "  IDD2P %8.1f mA   (precharge power-down)\n", m.IDD2P().Milliamps())
	fmt.Fprintf(w, "  IDD3N %8.1f mA   (active standby)\n", idd.IDD3N.Milliamps())
	fmt.Fprintf(w, "  IDD4R %8.1f mA   (gapless reads)\n", idd.IDD4R.Milliamps())
	fmt.Fprintf(w, "  IDD4W %8.1f mA   (gapless writes)\n", idd.IDD4W.Milliamps())
	fmt.Fprintf(w, "  IDD5  %8.1f mA   (auto refresh)\n", idd.IDD5.Milliamps())
	fmt.Fprintf(w, "  IDD7  %8.1f mA   (interleaved act/rd/pre)\n", idd.IDD7.Milliamps())

	res := m.Evaluate()
	fmt.Fprintf(w, "\nPattern \"%s\":\n", d.Pattern.String())
	fmt.Fprintf(w, "  power %s  current %s", res.Power, res.Current)
	if res.EnergyPerBit > 0 {
		fmt.Fprintf(w, "  energy/bit %.2f pJ", res.EnergyPerBit.Picojoules())
	}
	fmt.Fprintln(w)

	fmt.Fprintln(w, "  by group:")
	type kv struct {
		g circuits.Group
		p float64
	}
	var rows []kv
	for g, p := range res.ByGroup {
		rows = append(rows, kv{g, float64(p)})
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].p > rows[j].p })
	for _, r := range rows {
		fmt.Fprintf(w, "    %-9s %10.2f mW  (%4.1f%%)\n", r.g, r.p/1e-3,
			100*r.p/float64(res.Power))
	}
	fmt.Fprintln(w, "  by domain:")
	for _, dom := range desc.AllDomains {
		if p, ok := res.ByDomain[dom]; ok {
			fmt.Fprintf(w, "    %-9s %10.2f mW  (%4.1f%%)\n", dom, float64(p)/1e-3,
				100*float64(p)/float64(res.Power))
		}
	}
}
