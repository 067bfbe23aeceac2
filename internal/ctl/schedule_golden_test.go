package ctl

import (
	"bytes"
	"crypto/sha256"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"drampower/internal/trace"
)

// -update rewrites testdata/schedule.golden.txt from the current code:
//
//	go test ./internal/ctl -run TestScheduleGolden -update
//
// The golden pins the scheduler's output over a grid of every page
// policy (four timeout windows), channel count, low-power setting,
// locality and arrival gap: one line per configuration with the SHA-256
// of the merged trace's text rendering and the stats. A refactor of the
// controller that claims byte-identical output must pass it unedited.
var update = flag.Bool("update", false, "rewrite golden files")

func TestScheduleGolden(t *testing.T) {
	m := model(t)
	type policy struct {
		name string
		pol  Policy
		to   int64
	}
	policies := []policy{{"open", PolicyOpen, 0}, {"closed", PolicyClosed, 0}}
	for _, to := range []int64{1, 7, 64, 1000} {
		policies = append(policies, policy{fmt.Sprintf("timeout=%d", to), PolicyTimeout, to})
	}
	var buf, text bytes.Buffer
	for _, pol := range policies {
		for _, channels := range []int{1, 2, 4} {
			for _, pd := range []int64{0, 16} {
				for _, sr := range []int64{0, 400} {
					for _, rowHit := range []float64{0.1, 0.5, 0.9} {
						for _, gap := range []int64{1, 4, 16, 200} {
							gen := genOpts(2000, rowHit, gap)
							gen.Channels = channels
							reqs, err := GenerateAccesses(m, gen)
							if err != nil {
								t.Fatal(err)
							}
							opts := Options{Policy: pol.pol, PageTimeout: pol.to, Channels: channels,
								PowerDownAfter: pd, SelfRefreshAfter: sr}
							cmds, stats := schedule(t, m, reqs, opts)
							text.Reset()
							if err := trace.WriteTrace(&text, cmds); err != nil {
								t.Fatal(err)
							}
							fmt.Fprintf(&buf, "%s ch=%d pd=%d sr=%d hit=%g gap=%d sha256=%x %+v\n",
								pol.name, channels, pd, sr, rowHit, gap, sha256.Sum256(text.Bytes()), stats)
						}
					}
				}
			}
		}
	}

	path := filepath.Join("testdata", "schedule.golden.txt")
	if *update {
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden %s (run with -update to create): %v", path, err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		got, exp := strings.Split(buf.String(), "\n"), strings.Split(string(want), "\n")
		for i := 0; i < len(got) && i < len(exp); i++ {
			if got[i] != exp[i] {
				t.Fatalf("%s differs at line %d\ngot:  %s\nwant: %s", path, i+1, got[i], exp[i])
			}
		}
		t.Fatalf("%s: %d lines, golden has %d", path, len(got), len(exp))
	}
}
