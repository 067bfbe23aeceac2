package main

import (
	"bufio"
	"bytes"
	"context"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// -update rewrites the golden files under testdata/ from the current
// code:
//
//	go test ./cmd/dramserved -update
var update = flag.Bool("update", false, "rewrite the golden files")

// TestRun runs dramserved on each case that ends without serving and
// compares its exit status, stdout and stderr with
// testdata/<case>.golden. The -h usage and the error goldens pin the flag
// set and the diagnostics byte for byte.
func TestRun(t *testing.T) {
	for _, tc := range []struct {
		name  string
		args  []string
		stdin string
	}{
		{"bad-addr", []string{"-addr", "bogus", "-quiet"}, ""},
		{"missing-calib", []string{"-calib", "testdata/missing.calib"}, ""},
		{"help", []string{"-h"}, ""},
		{"flag-error", []string{"-bogus"}, ""},
	} {
		t.Run(tc.name, func(t *testing.T) {
			golden(t, tc.name, runCase(t, tc.args, tc.stdin))
		})
	}
}

// TestServe starts dramserved on a free port, reads the address it
// prints, checks that it answers, then cancels its context, as SIGTERM
// does, and expects a clean drain and exit status 0.
func TestServe(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	pr, pw := io.Pipe()
	var stderr bytes.Buffer
	done := make(chan int, 1)
	go func() {
		code := run(ctx, []string{"-addr", "127.0.0.1:0", "-quiet"}, strings.NewReader(""), pw, &stderr)
		pw.Close()
		done <- code
	}()
	line, err := bufio.NewReader(pr).ReadString('\n')
	if err != nil {
		t.Fatalf("reading the listen line: %v (exit %d)", err, <-done)
	}
	addr := strings.TrimSpace(strings.TrimPrefix(line, "dramserved listening on "))
	resp, err := http.Get("http://" + addr + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("/healthz: status %d", resp.StatusCode)
	}
	cancel()
	code := <-done
	line = strings.Replace(line, addr, "127.0.0.1:<port>", 1)
	golden(t, "serve", fmt.Sprintf("exit %d\n-- stdout --\n%s-- stderr --\n%s", code, line, stderr.Bytes()))
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
	code := run(context.Background(), args, in, &stdout, &stderr)
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
