package desc

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// FuzzParse drives the description parser with mutated inputs, seeded
// from the real testdata devices and a few degenerate fragments. The
// parser must never panic; two parses of one input must fail with the
// same text or both succeed; on failure it must surface a positioned
// *ParseError; and anything it accepts must survive the canonical
// round-trip (Format output reparses cleanly), since the server derives
// model-cache keys from that canonical form.
func FuzzParse(f *testing.F) {
	paths, _ := filepath.Glob(filepath.Join("..", "..", "testdata", "*.dram"))
	for _, p := range paths {
		if b, err := os.ReadFile(p); err == nil {
			f.Add(string(b))
		}
	}
	f.Add(Format(Sample1GbDDR3()))
	f.Add("")
	f.Add("Name x\n")
	f.Add("FloorplanPhysical\nCellArray BL=h BitsPerBL=9e999\n")
	f.Add("Pattern act nop rd\n")
	f.Add("Technology\nVpp 2.9 V\nTiming tRC=-1ns\n")
	f.Add("# comment only\n\n\t\n")
	f.Add("FloorplanPhysical\nSizeHorizontal 1um 2um\nHorizontal blocks = a b\n")

	f.Add("Specification\nTiming tRC=abc tRP=xyz tRCD=13.75ns\n")

	f.Fuzz(func(t *testing.T, src string) {
		d, err := ParseString(src)
		if _, err2 := ParseString(src); fmt.Sprint(err2) != fmt.Sprint(err) {
			t.Fatalf("two parses disagree:\nfirst:  %v\nsecond: %v", err, err2)
		}
		if err != nil {
			var pe *ParseError
			if !errors.As(err, &pe) {
				t.Fatalf("non-positioned parse error %T: %v", err, err)
			}
			if pe.Line < 1 {
				t.Fatalf("parse error with line %d: %v", pe.Line, pe)
			}
			return
		}
		if d.Validate() != nil {
			// Parse accepts structurally well-formed fragments that
			// Validate (and therefore Build) rejects; those have no
			// canonical-form guarantee.
			return
		}
		canon := Format(d)
		d2, err := ParseString(canon)
		if err != nil {
			t.Fatalf("valid input failed the canonical round-trip:\ninput: %q\ncanon: %q\nerr: %v",
				src, canon, err)
		}
		if again := Format(d2); again != canon {
			t.Fatalf("canonical form is not a fixed point:\nfirst:  %q\nsecond: %q", canon, again)
		}
		if !strings.HasSuffix(canon, "\n") && canon != "" {
			t.Fatalf("Format output misses the trailing newline: %q", canon)
		}
	})
}
