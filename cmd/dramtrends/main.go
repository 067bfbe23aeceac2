// Command dramtrends regenerates the technology-scaling figures of the
// paper: the parameter shrink curves of Figures 5–7, the disruptive
// changes of Table II, the voltage trends of Figure 11, the data-rate and
// row-timing trends of Figure 12 and the energy-per-bit / die-area trends
// of Figure 13 (including the headline 1.5x-per-generation historic and
// 1.2x-per-generation forecast energy reduction).
//
// Usage:
//
//	dramtrends              # everything
//	dramtrends -fig13       # a single artifact (fig5..fig13, tableII)
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"drampower/internal/cli"
	"drampower/internal/engine"
	"drampower/internal/scaling"
)

func main() { os.Exit(run(os.Args[1:], os.Stdin, os.Stdout, os.Stderr)) }

// run runs dramtrends on args and returns its exit status.
func run(args []string, _ io.Reader, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("dramtrends", flag.ContinueOnError)
	fig5 := fs.Bool("fig5", false, "Figure 5: technology parameter scaling")
	fig6 := fs.Bool("fig6", false, "Figure 6: capacitance / stripe scaling")
	fig7 := fs.Bool("fig7", false, "Figure 7: core device scaling")
	fig11 := fs.Bool("fig11", false, "Figure 11: voltage trends")
	fig12 := fs.Bool("fig12", false, "Figure 12: data rate and row timing trends")
	fig13 := fs.Bool("fig13", false, "Figure 13: energy per bit and die area trends")
	tab2 := fs.Bool("tableII", false, "Table II: disruptive technology changes")
	// batch carries the -workers flag to the node builds of Figure 13.
	var batch engine.Options
	cli.WorkersVar(fs, &batch.Workers, "the node builds")
	return cli.Run(fs, args, stderr, func() error {
		all := !(*fig5 || *fig6 || *fig7 || *fig11 || *fig12 || *fig13 || *tab2)
		if *tab2 || all {
			tableII(stdout)
		}
		if *fig5 || all {
			shrinkFigure(stdout, "Figure 5: scaling of technology related parameters", scaling.Figure5Families())
		}
		if *fig6 || all {
			shrinkFigure(stdout, "Figure 6: scaling of miscellaneous technology parameters", scaling.Figure6Families())
		}
		if *fig7 || all {
			shrinkFigure(stdout, "Figure 7: scaling of core device width and length parameters", scaling.Figure7Families())
		}
		if *fig11 || all {
			voltageTrends(stdout)
		}
		if *fig12 || all {
			timingTrends(stdout)
		}
		if *fig13 || all {
			return energyTrends(stdout, batch)
		}
		return nil
	})
}

func tableII(w io.Writer) {
	fmt.Fprintln(w, "Table II: disruptive DRAM technology changes")
	for _, d := range scaling.DisruptiveChanges() {
		fmt.Fprintf(w, "  %-16s %-55s %s\n", d.Transition, d.Change, d.Background)
	}
	fmt.Fprintln(w)
}

func shrinkFigure(w io.Writer, title string, families []string) {
	nodes, rows := scaling.ShrinkTable(families)
	fmt.Fprintln(w, title)
	fmt.Fprintf(w, "  %-20s", "node [nm]")
	for _, n := range nodes {
		fmt.Fprintf(w, " %6.0f", n.FeatureNm)
	}
	fmt.Fprintln(w)
	fmt.Fprintf(w, "  %-20s", "f-shrink")
	for _, v := range scaling.FShrinkSeries() {
		fmt.Fprintf(w, " %6.2f", v)
	}
	fmt.Fprintln(w)
	for _, fam := range sortedKeys(rows) {
		fmt.Fprintf(w, "  %-20s", fam)
		for _, v := range rows[fam] {
			fmt.Fprintf(w, " %6.2f", v)
		}
		fmt.Fprintln(w)
	}
	fmt.Fprintln(w)
}

func sortedKeys(m map[string][]float64) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	for i := 1; i < len(keys); i++ {
		for j := i; j > 0 && keys[j] < keys[j-1]; j-- {
			keys[j], keys[j-1] = keys[j-1], keys[j]
		}
	}
	return keys
}

func voltageTrends(w io.Writer) {
	fmt.Fprintln(w, "Figure 11: voltage trends")
	fmt.Fprintf(w, "  %-6s %-10s %6s %6s %6s %6s\n", "node", "interface", "Vdd", "Vint", "Vbl", "Vpp")
	for _, n := range scaling.Roadmap() {
		fmt.Fprintf(w, "  %-6.0f %-10s %6.2f %6.2f %6.2f %6.2f\n",
			n.FeatureNm, n.Interface, float64(n.Vdd), float64(n.Vint),
			float64(n.Vbl), float64(n.Vpp))
	}
	fmt.Fprintln(w)
}

func timingTrends(w io.Writer) {
	fmt.Fprintln(w, "Figure 12: data rate and row timing trends")
	fmt.Fprintf(w, "  %-6s %-10s %10s %9s %8s %8s\n",
		"node", "interface", "rate/pin", "prefetch", "tRC", "tRCD")
	for _, n := range scaling.Roadmap() {
		fmt.Fprintf(w, "  %-6.0f %-10s %7.0f Mbps %6d %7.1fns %7.1fns\n",
			n.FeatureNm, n.Interface, float64(n.DataRate)/1e6,
			n.Interface.Prefetch(), n.TRC.Nanoseconds(), n.TRCD.Nanoseconds())
	}
	fmt.Fprintln(w)
}

func energyTrends(w io.Writer, batch engine.Options) error {
	// Build every node before printing, so a failure exits without
	// leaving a half-emitted table on stdout.
	pts, err := scaling.EnergyTrend(batch)
	if err != nil {
		return err
	}
	fmt.Fprintln(w, "Figure 13: energy consumption and die area trends")
	fmt.Fprintf(w, "  %-18s %6s %10s %12s %10s\n",
		"device", "year", "die [mm²]", "e/bit [pJ]", "gen ratio")
	for _, p := range pts {
		ratio := "-"
		if p.GenRatio > 0 {
			ratio = fmt.Sprintf("x%.2f", p.GenRatio)
		}
		fmt.Fprintf(w, "  %-18s %6.1f %10.1f %12.1f %10s\n",
			p.Node.Name(), p.Node.Year, p.DieAreaMM2, p.EnergyPerBitPJ, ratio)
	}
	hist := scaling.ReductionPerGeneration(pts, 170, 44)
	fore := scaling.ReductionPerGeneration(pts, 44, 16)
	fmt.Fprintf(w, "  -> historic reduction (170nm..44nm, 2000-2010): x%.2f per generation (paper: ~1.5)\n", hist)
	fmt.Fprintf(w, "  -> forecast reduction (44nm..16nm, 2010-2018):  x%.2f per generation (paper: ~1.2)\n", fore)
	fmt.Fprintln(w)
	return nil
}
