// Command dramschemes regenerates the comparison of proposed DRAM power
// reduction schemes of Section V of the paper: selective bitline
// activation and single sub-array access (Udipi et al.), segmented data
// lines (Jeong et al.), the paper's own reduced-page 8:1 column
// architecture, and a per-device view of mini-rank style width reduction
// (Zheng et al.). For each scheme it reports the energy per bit in the
// interleaved pattern and the die-area impact.
//
// Usage:
//
//	dramschemes                # evaluate on the built-in 1 Gb DDR3 sample
//	dramschemes -node 36       # evaluate on a roadmap device
//	dramschemes -f device.dram # evaluate on a description file
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"drampower/internal/cli"
	"drampower/internal/engine"
	"drampower/internal/schemes"
)

func main() { os.Exit(run(os.Args[1:], os.Stdin, os.Stdout, os.Stderr)) }

// run runs dramschemes on args and returns its exit status.
func run(args []string, _ io.Reader, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("dramschemes", flag.ContinueOnError)
	src := cli.NewSource(fs, "f", true)
	notes := fs.Bool("notes", false, "print the feasibility notes")
	var batch engine.Options
	cli.WorkersVar(fs, &batch.Workers, "the scheme evaluations")
	return cli.Run(fs, args, stderr, func() error {
		d, err := src.Description()
		if err != nil {
			return err
		}
		res, err := schemes.EvaluateOpts(d, batch)
		if err != nil {
			return err
		}
		fmt.Fprintf(stdout, "Section V: power reduction schemes on %s\n", d.Name)
		fmt.Fprintf(stdout, "  %-36s %12s %8s %11s %8s %8s\n",
			"scheme", "e/bit [pJ]", "Δenergy", "area [mm²]", "Δarea", "IDD7")
		for _, r := range res {
			fmt.Fprintf(stdout, "  %-36s %12.2f %+7.1f%% %11.1f %+7.1f%% %6.0fmA\n",
				r.Name, r.EnergyPerBit.Picojoules(), r.EnergyDeltaPct,
				r.DieAreaMM2, r.AreaDeltaPct, r.IDD7.Milliamps())
		}
		fmt.Fprintln(stdout)
		for _, r := range res[1:] {
			fmt.Fprintf(stdout, "  %-36s %s\n", r.Name, schemes.ParetoNote(r))
			if *notes && r.Notes != "" {
				fmt.Fprintf(stdout, "  %36s   %s (%s)\n", "", r.Notes, r.Source)
			}
		}
		return nil
	})
}
