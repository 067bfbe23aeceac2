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
//	go test ./cmd/dramctl -update
var update = flag.Bool("update", false, "rewrite the golden files")

// wallClock matches the numbers of a scheduling report that depend on
// the wall clock: the text throughput line and the json run block's rate
// and time.
var wallClock = regexp.MustCompile(`(?m)^(  throughput: +).*$|("(?:wall_seconds|requests_per_second)": )[^,\n]+`)

// TestRun runs dramctl on each case and compares its exit status, stdout
// and stderr, wall-clock numbers masked, with testdata/<case>.golden.
// The -h usage, the text reports and the error goldens pin the flag set,
// the reports and the diagnostics byte for byte; bad-access pins that an
// access-trace error names its input file.
func TestRun(t *testing.T) {
	for _, tc := range []struct {
		name  string
		args  []string
		stdin string
	}{
		{"gen", []string{"-gen", "-n", "20"}, ""},
		{"report", []string{"testdata/access.txt"}, ""},
		{"report-timeout", []string{"-policy", "timeout=64", "-pd-timeout", "32", "-channels", "2", "testdata/access.txt"}, ""},
		{"report-stdin", nil, "testdata/access.txt"},
		{"report-json", []string{"-format", "json", "testdata/access.txt"}, ""},
		{"report-json-calib", []string{"-format", "json", "-desc", "../../testdata/ddr3_1gb_x16_55nm.dram", "-calib", "../../testdata/measured.calib", "-policy", "timeout=064", "testdata/access.txt"}, ""},
		{"emit", []string{"-emit", "text", "testdata/access.txt"}, ""},
		{"bad-access", []string{"testdata/bad.txt"}, ""},
		{"bad-policy", []string{"-policy", "bogus", "testdata/access.txt"}, ""},
		{"bad-format", []string{"-format", "xml", "testdata/access.txt"}, ""},
		{"bad-emit", []string{"-emit", "bogus", "testdata/access.txt"}, ""},
		{"bad-channels", []string{"-channels", "0", "testdata/access.txt"}, ""},
		{"help", []string{"-h"}, ""},
		{"flag-error", []string{"-bogus"}, ""},
	} {
		t.Run(tc.name, func(t *testing.T) {
			got := runCase(t, tc.args, tc.stdin)
			golden(t, tc.name, wallClock.ReplaceAllString(got, "${1}${2}<wall clock>"))
		})
	}
}

// TestJSONMatchesServer feeds the same access trace to dramctl -format
// json and to POST /v1/schedule and finds the two reports equal field
// for field, apart from dramctl's run block: for the sample with the
// default controller, and for a description file with a calibration
// overlay, which /v1/schedule selects by the model key /v1/evaluate
// returns for the same two documents, under a page-timeout policy
// spelled with a leading zero that both report canonically.
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
	const descFile, calibFile, accessFile = "../../testdata/ddr3_1gb_x16_55nm.dram", "../../testdata/measured.calib", "testdata/access.txt"
	ev := post(hs.URL+"/v1/evaluate", read(descFile)+read(calibFile))

	for _, tc := range []struct {
		name  string
		args  []string
		query string
	}{
		{"sample", nil, ""},
		{"desc-calib-timeout", []string{"-desc", descFile, "-calib", calibFile, "-policy", "timeout=064", "-pd-timeout", "32"},
			"?model=" + ev["model_key"].(string) + "&policy=timeout=064&pd_timeout=32"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			args := append(append([]string{"-format", "json"}, tc.args...), accessFile)
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
			want := post(hs.URL+"/v1/schedule"+tc.query, read(accessFile))
			if !reflect.DeepEqual(got, want) {
				t.Errorf("dramctl -format json differs from /v1/schedule:\n got %v\nwant %v", got, want)
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
