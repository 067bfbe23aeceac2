package main

import (
	"bytes"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// -update rewrites the golden files under testdata/ from the current
// code:
//
//	go test ./cmd/drampower -update
var update = flag.Bool("update", false, "rewrite the golden files")

// TestRun runs drampower on each case and compares its exit status, stdout
// and stderr with testdata/<case>.golden. The -h usage and the error
// goldens pin the flag set and the diagnostics byte for byte.
func TestRun(t *testing.T) {
	for _, tc := range []struct {
		name  string
		args  []string
		stdin string
	}{
		{"sample", nil, ""},
		{"ddr2-pattern", []string{"-f", "../../testdata/ddr2_1gb_x16_75nm.dram", "-pattern", "act nop rd nop pre nop"}, ""},
		{"calib", []string{"-calib", "../../testdata/measured.calib"}, ""},
		{"huge-calib", []string{"-calib", "testdata/huge-act.calib"}, ""},
		{"bad-pattern", []string{"-pattern", "act jump"}, ""},
		{"bad-desc", []string{"-f", "testdata/bad.dram"}, ""},
		{"missing-desc", []string{"-f", "testdata/missing.dram"}, ""},
		{"long-trc", []string{"-f", "testdata/trc10ms.dram"}, ""},
		{"nan-toggle", []string{"-f", "testdata/nan-toggle.dram"}, ""},
		{"inf-vdd", []string{"-f", "testdata/inf-vdd.dram"}, ""},
		{"help", []string{"-h"}, ""},
		{"flag-error", []string{"-bogus"}, ""},
	} {
		t.Run(tc.name, func(t *testing.T) {
			golden(t, tc.name, runCase(t, tc.args, tc.stdin))
		})
	}
}

// runCase runs the tool on args with stdin read from the file stdin
// ("" for an empty stdin) and renders the exit status and both streams
// in the golden-file layout.
func runCase(t *testing.T, args []string, stdin string) string {
	t.Helper()
	in := io.Reader(strings.NewReader(""))
	if stdin != "" {
		f, err := os.Open(stdin)
		if err != nil {
			t.Fatal(err)
		}
		defer f.Close()
		in = f
	}
	var stdout, stderr bytes.Buffer
	code := run(args, in, &stdout, &stderr)
	return fmt.Sprintf("exit %d\n-- stdout --\n%s-- stderr --\n%s", code, stdout.Bytes(), stderr.Bytes())
}

// golden compares got with testdata/<name>.golden, or rewrites that file
// under -update.
func golden(t *testing.T, name, got string) {
	t.Helper()
	path := filepath.Join("testdata", name+".golden")
	if *update {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Errorf("output differs from %s:\n got:\n%s\nwant:\n%s", path, got, want)
	}
}
