package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"strings"
	"testing"

	"drampower/internal/server"
)

// -update rewrites the golden files under testdata/ from the current
// code:
//
//	go test ./cmd/dramtrace -update
var update = flag.Bool("update", false, "rewrite the golden files")

// wallClock matches the numbers of a replay report that depend on the
// wall clock: the text throughput line and the json run block's rates
// and time.
var wallClock = regexp.MustCompile(`(?m)^(  throughput: +).*$|("(?:wall_seconds|commands_per_second|mb_per_second)": )[^,\n]+`)

// TestRun runs dramtrace on each case and compares its exit status,
// stdout and stderr, wall-clock numbers masked, with
// testdata/<case>.golden. The -h usage, the text reports and the error
// goldens pin the flag set, the reports and the diagnostics byte for
// byte.
func TestRun(t *testing.T) {
	for _, tc := range []struct {
		name  string
		args  []string
		stdin string
	}{
		{"gen", []string{"-gen", "closed", "-n", "30"}, ""},
		{"gen-mixed-channels", []string{"-gen", "mixed", "-n", "40", "-channels", "2", "-rowhit", "0.8"}, ""},
		{"replay", []string{"testdata/closed.trace"}, ""},
		{"replay-stdin", nil, "testdata/closed.trace"},
		{"replay-json", []string{"-format", "json", "testdata/closed.trace"}, ""},
		{"replay-json-calib", []string{"-format", "json", "-desc", "../../testdata/ddr3_1gb_x16_55nm.dram", "-calib", "../../testdata/measured.calib", "testdata/closed.trace"}, ""},
		{"convert", []string{"-convert", "text", "testdata/closed.trace"}, ""},
		{"bad-trace", []string{"testdata/bad.trace"}, ""},
		{"bad-trace-stdin", nil, "testdata/bad.trace"},
		{"missing-trace", []string{"testdata/missing.trace"}, ""},
		{"bad-format", []string{"-format", "xml", "testdata/closed.trace"}, ""},
		{"binary-without-gen", []string{"-format", "binary", "testdata/closed.trace"}, ""},
		{"bad-gen", []string{"-gen", "bogus"}, ""},
		{"bad-convert", []string{"-convert", "bogus", "testdata/closed.trace"}, ""},
		{"bad-channels", []string{"-channels", "-3", "testdata/closed.trace"}, ""},
		{"too-many-channels", []string{"-channels", "5000", "testdata/closed.trace"}, ""},
		{"bad-rowadd", []string{"-desc", "testdata/rowadd63.dram", "-gen", "closed", "-n", "9"}, ""},
		{"help", []string{"-h"}, ""},
		{"flag-error", []string{"-bogus"}, ""},
	} {
		t.Run(tc.name, func(t *testing.T) {
			got := runCase(t, tc.args, tc.stdin)
			golden(t, tc.name, wallClock.ReplaceAllString(got, "${1}${2}<wall clock>"))
		})
	}
}

// TestBinaryRoundTrip replays a trace generated as dtb and finds the same
// report as for its text rendering.
func TestBinaryRoundTrip(t *testing.T) {
	report := func(args []string, stdin io.Reader) string {
		t.Helper()
		var stdout, stderr bytes.Buffer
		if code := run(args, stdin, &stdout, &stderr); code != 0 {
			t.Fatalf("dramtrace %q: exit %d: %s", args, code, stderr.Bytes())
		}
		return stdout.String()
	}
	gen := []string{"-gen", "streaming", "-n", "200", "-channels", "2", "-idle", "1"}
	dtb := report(append(gen, "-format", "binary"), nil)
	text := report(gen, nil)
	replay := []string{"-channels", "2", "-format", "json"}
	fromDtb := wallClock.ReplaceAllString(report(replay, strings.NewReader(dtb)), "")
	fromText := wallClock.ReplaceAllString(report(replay, strings.NewReader(text)), "")
	if fromDtb == fromText {
		t.Fatal("dtb and text inputs report the same trace_bytes; the dtb case did not run")
	}
	// Only the byte count differs.
	bytesField := regexp.MustCompile(`"trace_bytes": \d+`)
	if bytesField.ReplaceAllString(fromDtb, "") != bytesField.ReplaceAllString(fromText, "") {
		t.Errorf("dtb replay differs from text replay:\n%s\n%s", fromDtb, fromText)
	}
}

// TestJSONMatchesServer feeds the same trace to dramtrace -format json
// and to POST /v1/trace and finds the two reports equal field for field,
// apart from dramtrace's run block: for the sample, and for a
// description file with a calibration overlay, which /v1/trace selects
// by the model key /v1/evaluate returns for the same two documents.
func TestJSONMatchesServer(t *testing.T) {
	srv := server.New(server.Options{})
	hs := httptest.NewServer(srv.Handler())
	defer srv.Close()
	defer hs.Close()

	read := func(path string) string {
		b, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		return string(b)
	}
	post := func(url, body string) map[string]any {
		t.Helper()
		resp, err := http.Post(url, "text/plain", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var out map[string]any
		if err := json.NewDecoder(resp.Body).Decode(&out); err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("POST %s: status %d, %v: %v", url, resp.StatusCode, err, out)
		}
		return out
	}
	const descFile, calibFile, traceFile = "../../testdata/ddr3_1gb_x16_55nm.dram", "../../testdata/measured.calib", "testdata/closed.trace"
	ev := post(hs.URL+"/v1/evaluate", read(descFile)+read(calibFile))

	for _, tc := range []struct {
		name  string
		args  []string
		query string
	}{
		{"sample", nil, ""},
		{"desc-calib", []string{"-desc", descFile, "-calib", calibFile}, "?model=" + ev["model_key"].(string)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			args := append(append([]string{"-format", "json"}, tc.args...), traceFile)
			if code := run(args, strings.NewReader(""), &stdout, &stderr); code != 0 {
				t.Fatalf("exit %d: %s", code, stderr.Bytes())
			}
			var got map[string]any
			if err := json.Unmarshal(stdout.Bytes(), &got); err != nil {
				t.Fatal(err)
			}
			if _, ok := got["run"]; !ok {
				t.Error("no run block")
			}
			delete(got, "run")
			want := post(hs.URL+"/v1/trace"+tc.query, read(traceFile))
			if !reflect.DeepEqual(got, want) {
				t.Errorf("dramtrace -format json differs from /v1/trace:\n got %v\nwant %v", got, want)
			}
			if calibrated := got["calibrated"] == true; calibrated != (tc.args != nil) {
				t.Errorf("calibrated = %v", got["calibrated"])
			}
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
