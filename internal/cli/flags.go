package cli

import (
	"flag"
	"fmt"
	"io"
	"os"

	"drampower/internal/desc"
	"drampower/internal/scaling"
)

// This file centralizes the flags every cmd/* binary used to register by
// hand: the -workers pool size, the -format selector, the description
// source (-f/-desc plus optionally -node), the -calib calibration
// overlay and the positional input. Registering through these helpers
// keeps the flag names, help strings and failure diagnostics identical
// across the tools.

// WorkersVar registers the -workers flag into dst with the shared help
// text; what names the work the pool runs ("the sweep", "the replay").
func WorkersVar(fs *flag.FlagSet, dst *int, what string) {
	fs.IntVar(dst, "workers", 0,
		fmt.Sprintf("worker pool size for %s (0 = one per CPU, 1 = serial)", what))
}

// FormatVar registers the -format flag (text or json). Check the parsed
// value with CheckFormat before first use.
func FormatVar(fs *flag.FlagSet) *string {
	return fs.String("format", "text", "output format: text or json")
}

// CheckFormat rejects a -format value other than text or json.
func CheckFormat(format string) error {
	if format != "text" && format != "json" {
		return fmt.Errorf("bad -format %q (want text or json)", format)
	}
	return nil
}

// OverlayVar registers the -calib flag: a calibration overlay file whose
// entries are applied on top of the derived model (see the README
// "Calibration" section). Resolve the parsed path with LoadOverlay.
func OverlayVar(fs *flag.FlagSet) *string {
	return fs.String("calib", "",
		"calibration overlay file applied on top of the derived model")
}

// LoadOverlay parses the overlay file named by a -calib flag. An empty
// path (the flag's default) returns nil: no calibration. A parse error
// names the file (see InputErr).
func LoadOverlay(path string) (*desc.Overlay, error) {
	if path == "" {
		return nil, nil
	}
	ov, err := desc.ParseOverlayFile(path)
	return ov, InputErr(path, err)
}

// Input opens the positional file argument of fs, or returns stdin when
// there is none, with the name diagnostics give it ("<stdin>" for
// stdin). The caller closes it; closing stdin is a no-op.
func Input(fs *flag.FlagSet, stdin io.Reader) (io.ReadCloser, string, error) {
	if fs.NArg() == 0 {
		return io.NopCloser(stdin), "<stdin>", nil
	}
	f, err := os.Open(fs.Arg(0))
	if err != nil {
		return nil, "", err
	}
	return f, fs.Arg(0), nil
}

// Source is the shared description selection of the cmd/* binaries: a
// description file flag (-f, or -desc for dramtrace and dramctl),
// optionally a roadmap -node flag, falling back to the built-in 1 Gb
// DDR3 sample.
type Source struct {
	file, label string
	node        float64
}

// NewSource registers the description-selection flags on fs. fileFlag
// is the file flag's name; withNode additionally registers -node.
func NewSource(fs *flag.FlagSet, fileFlag string, withNode bool) *Source {
	s := &Source{}
	fs.StringVar(&s.file, fileFlag, "",
		"description file (.dram); default: built-in 1 Gb DDR3 sample")
	if withNode {
		fs.Float64Var(&s.node, "node", 0,
			"roadmap node to use instead of the sample (feature size in nm)")
	}
	return s
}

// File reports the parsed file flag ("" when absent).
func (s *Source) File() string { return s.file }

// Explicit reports whether the user selected a description (file or
// node) rather than falling through to the sample.
func (s *Source) Explicit() bool { return s.file != "" || s.node != 0 }

// Description resolves the selected description: the file when given,
// else the roadmap node, else the built-in sample. It also records the
// Label.
func (s *Source) Description() (*desc.Description, error) {
	switch {
	case s.file != "":
		d, err := desc.ParseFile(s.file)
		if err != nil {
			return nil, InputErr(s.file, err)
		}
		s.label = d.Name
		return d, nil
	case s.node != 0:
		n, err := scaling.NodeFor(s.node)
		if err != nil {
			return nil, err
		}
		s.label = n.Name()
		return n.Description(), nil
	default:
		d := desc.Sample1GbDDR3()
		s.label = d.Name
		return d, nil
	}
}

// Label is a display name for the last Description() result: the node's
// roadmap name when -node selected it, else the description's own name.
func (s *Source) Label() string { return s.label }
