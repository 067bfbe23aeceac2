// Command dramverify regenerates the datasheet verification of
// Section IV.A of the paper: Figure 8 (1 Gb DDR2) and Figure 9 (1 Gb
// DDR3). For every comparison point it prints the five-vendor datasheet
// values, their spread and the model's prediction on the two technology
// nodes typical for the part's market window.
//
// Usage:
//
//	dramverify            # both figures
//	dramverify -ddr2      # Figure 8 only
//	dramverify -ddr3      # Figure 9 only
//	dramverify -vendors   # include the per-vendor columns
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"sort"

	"drampower/internal/cli"
	"drampower/internal/datasheet"
	"drampower/internal/engine"
)

func main() { os.Exit(run(os.Args[1:], os.Stdin, os.Stdout, os.Stderr)) }

// run runs dramverify on args and returns its exit status.
func run(args []string, _ io.Reader, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("dramverify", flag.ContinueOnError)
	ddr2 := fs.Bool("ddr2", false, "show only the DDR2 comparison (Figure 8)")
	ddr3 := fs.Bool("ddr3", false, "show only the DDR3 comparison (Figure 9)")
	vendors := fs.Bool("vendors", false, "print per-vendor datasheet columns")
	// batch carries the -workers flag to the comparison model builds.
	var batch engine.Options
	cli.WorkersVar(fs, &batch.Workers, "the model builds")
	return cli.Run(fs, args, stderr, func() error {
		both := !*ddr2 && !*ddr3
		if *ddr2 || both {
			if err := compare(stdout, datasheet.DDR2, "Figure 8: model vs datasheet, 1Gb DDR2 (model at 75nm and 65nm)", *vendors, batch); err != nil {
				return err
			}
		}
		if *ddr3 || both {
			return compare(stdout, datasheet.DDR3, "Figure 9: model vs datasheet, 1Gb DDR3 (model at 65nm and 55nm)", *vendors, batch)
		}
		return nil
	})
}

// compare prints one figure: the datasheet points of std against the
// model.
func compare(w io.Writer, std datasheet.Standard, title string, vendors bool, batch engine.Options) error {
	rows, err := datasheet.CompareOpts(std, batch)
	if err != nil {
		return err
	}
	fmt.Fprintln(w, title)
	if vendors {
		fmt.Fprintf(w, "  %-16s", "point")
		for _, v := range datasheet.Vendors {
			fmt.Fprintf(w, " %9s", v)
		}
		fmt.Fprintf(w, " | %17s | %s\n", "model [mA]", "verdict")
	} else {
		fmt.Fprintf(w, "  %-16s %9s %9s %9s | %17s | %s\n",
			"point", "sheet min", "mean", "max", "model [mA]", "verdict")
	}
	within := 0
	for _, c := range rows {
		p := c.Point
		if vendors {
			fmt.Fprintf(w, "  %-16s", p.Label())
			for _, v := range datasheet.Vendors {
				fmt.Fprintf(w, " %9.0f", p.VendorMA[v])
			}
		} else {
			fmt.Fprintf(w, "  %-16s %9.0f %9.0f %9.0f", p.Label(), p.Min(), p.Mean(), p.Max())
		}
		var nodes []string
		for n := range c.ModelMA {
			nodes = append(nodes, n)
		}
		sort.Strings(nodes)
		fmt.Fprint(w, " |")
		for _, n := range nodes {
			fmt.Fprintf(w, " %s:%6.1f", n, c.ModelMA[n])
		}
		verdict := "within spread"
		if c.WithinSpread(0.25) {
			within++
		} else {
			verdict = "OUTSIDE spread"
		}
		fmt.Fprintf(w, " | %s\n", verdict)
	}
	spread := datasheet.SpreadStats(rowsPoints(rows))
	fmt.Fprintf(w, "  -> %d/%d points within the vendor spread (mean max/min ratio %.2f)\n\n",
		within, len(rows), spread)
	return nil
}

func rowsPoints(rows []datasheet.Comparison) []datasheet.Point {
	pts := make([]datasheet.Point, len(rows))
	for i, r := range rows {
		pts[i] = r.Point
	}
	return pts
}
