// Package cli holds what the cmd/* binaries share: their common flags
// and the one way a run ends. Each binary's run(args, stdin, stdout,
// stderr) parses its own flag.FlagSet and returns the exit status, so
// tests call it like any function. Diagnostics go to the given stderr
// only, never into stdout, which may carry -format json or a trace.
package cli

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"strings"

	"drampower/internal/codec"
)

// Run parses args into fs, which must use flag.ContinueOnError, and then
// runs body. It returns the process exit status: 0 on success and after
// -h, 2 after a flag error (the flag package has printed the diagnostic
// and the usage on stderr, as flag.ExitOnError does), and 1 when body
// fails, after printing "tool: err" on stderr, the tool being fs's name.
func Run(fs *flag.FlagSet, args []string, stderr io.Writer, body func() error) int {
	fs.SetOutput(stderr)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	if err := body(); err != nil {
		fmt.Fprintf(stderr, "%s: %v\n", fs.Name(), err)
		return 1
	}
	return 0
}

// InputErr attributes err to the input it came from, a file path or
// "<stdin>". A positioned error (codec.ParseError, which the desc, trace
// and ctl parsers share) already carries its line and column; InputErr
// prefixes the input's name, so Run prints the editor-friendly
// "tool: file: line N, col M: msg". Other errors, and errors whose text
// already names the input (desc.ParseFile wraps its path), are returned
// as they are.
func InputErr(input string, err error) error {
	var pe *codec.ParseError
	if err == nil || !errors.As(err, &pe) || strings.Contains(err.Error(), input) {
		return err
	}
	return fmt.Errorf("%s: %w", input, err)
}
