package cli

import (
	"errors"
	"flag"
	"fmt"
	"strings"
	"testing"

	"drampower/internal/ctl"
	"drampower/internal/desc"
	"drampower/internal/trace"
)

// runTool runs body through Run under a flag set named "tool" and
// returns the exit status and what Run printed on stderr.
func runTool(args []string, body func() error) (code int, stderr string) {
	var b strings.Builder
	fs := flag.NewFlagSet("tool", flag.ContinueOnError)
	fs.Bool("v", false, "verbose")
	code = Run(fs, args, &b, body)
	return code, b.String()
}

// fail is a run body that fails with err.
func fail(err error) func() error { return func() error { return err } }

func TestFatalExitsNonZero(t *testing.T) {
	code, out := runTool(nil, fail(errors.New("boom")))
	if code != 1 {
		t.Fatalf("exit code = %d, want 1", code)
	}
	if out != "tool: boom\n" {
		t.Fatalf("stderr = %q", out)
	}
}

func TestRunExitCodes(t *testing.T) {
	ran := false
	if code, out := runTool([]string{"-v"}, func() error { ran = true; return nil }); code != 0 || out != "" || !ran {
		t.Errorf("success: code=%d stderr=%q ran=%v, want 0, silent, ran", code, out, ran)
	}
	ran = false
	code, out := runTool([]string{"-h"}, func() error { ran = true; return nil })
	if code != 0 || ran || !strings.HasPrefix(out, "Usage of tool:\n") {
		t.Errorf("-h: code=%d ran=%v stderr=%q, want 0, not run, the usage", code, ran, out)
	}
	code, out = runTool([]string{"-bogus"}, func() error { ran = true; return nil })
	if code != 2 || ran || !strings.HasPrefix(out, "flag provided but not defined: -bogus\nUsage of tool:\n") {
		t.Errorf("flag error: code=%d ran=%v stderr=%q, want 2, not run, diagnostic then usage", code, ran, out)
	}
}

func TestFatalInputPrefixesPositionedErrors(t *testing.T) {
	err := fmt.Errorf("wrapped: %w", &desc.ParseError{Lang: "desc", Line: 3, Col: 7, Msg: "bad token"})
	code, out := runTool(nil, fail(InputErr("dev.dram", err)))
	if code != 1 {
		t.Fatalf("exit code = %d, want 1", code)
	}
	if !strings.HasPrefix(out, "tool: dev.dram: ") || !strings.Contains(out, "line 3") {
		t.Fatalf("stderr = %q, want input-prefixed positioned diagnostic", out)
	}

	terr := &trace.ParseError{Lang: "trace", Line: 9, Col: 2, Msg: "bad bank"}
	_, out = runTool(nil, fail(InputErr("t.txt", terr)))
	if !strings.HasPrefix(out, "tool: t.txt: ") || !strings.Contains(out, "line 9") {
		t.Fatalf("stderr = %q", out)
	}
	if !errors.Is(InputErr("t.txt", terr), terr) {
		t.Error("InputErr hides the positioned error from errors.Is")
	}

	cerr := &ctl.ParseError{Lang: "access", Line: 1, Col: 3, Msg: "bad op"}
	_, out = runTool(nil, fail(InputErr("bad.txt", cerr)))
	if out != "tool: bad.txt: access: line 1, col 3: bad op\n" {
		t.Fatalf("stderr = %q, want the access error prefixed with its input", out)
	}
}

func TestFatalInputSkipsPrefixForPlainErrors(t *testing.T) {
	_, out := runTool(nil, fail(InputErr("dev.dram", errors.New("no such file"))))
	if out != "tool: no such file\n" {
		t.Fatalf("stderr = %q (plain errors usually already carry the path)", out)
	}
	named := &desc.ParseError{Lang: "desc", Line: 1, Msg: "dev.dram: bad"}
	if got := InputErr("dev.dram", named); got != error(named) {
		t.Errorf("InputErr prefixed an error that already names its input: %v", got)
	}
	if InputErr("dev.dram", nil) != nil {
		t.Error("InputErr(nil) != nil")
	}
}
