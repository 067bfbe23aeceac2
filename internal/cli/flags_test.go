package cli

import (
	"flag"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"drampower/internal/desc"
)

// newFlagSet returns a flag set for one test of the registration
// helpers.
func newFlagSet() *flag.FlagSet {
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	return fs
}

func TestWorkersVar(t *testing.T) {
	fs := newFlagSet()
	var w int
	WorkersVar(fs, &w, "the tests")
	if err := fs.Parse([]string{"-workers", "7"}); err != nil {
		t.Fatal(err)
	}
	if w != 7 {
		t.Fatalf("workers = %d, want 7", w)
	}
}

func TestCheckFormat(t *testing.T) {
	for _, ok := range []string{"text", "json"} {
		if err := CheckFormat(ok); err != nil {
			t.Fatalf("CheckFormat(%q) = %v", ok, err)
		}
	}
	err := CheckFormat("xml")
	if err == nil || err.Error() != `bad -format "xml" (want text or json)` {
		t.Fatalf("CheckFormat(xml) = %v", err)
	}
}

func TestSourceDefaultsToSample(t *testing.T) {
	fs := newFlagSet()
	s := NewSource(fs, "f", true)
	if err := fs.Parse(nil); err != nil {
		t.Fatal(err)
	}
	if s.Explicit() {
		t.Error("no flags given but Explicit() = true")
	}
	d, err := s.Description()
	if err != nil {
		t.Fatal(err)
	}
	want := desc.Sample1GbDDR3()
	if d.Name != want.Name || s.Label() != want.Name {
		t.Errorf("default description %q label %q, want sample %q", d.Name, s.Label(), want.Name)
	}
}

func TestSourceNode(t *testing.T) {
	fs := newFlagSet()
	s := NewSource(fs, "f", true)
	if err := fs.Parse([]string{"-node", "55"}); err != nil {
		t.Fatal(err)
	}
	if !s.Explicit() || s.File() != "" {
		t.Fatalf("node flag not picked up: %+v", s)
	}
	d, err := s.Description()
	if err != nil || d == nil || !strings.Contains(s.Label(), "55nm") {
		t.Errorf("node description label = %q, err = %v", s.Label(), err)
	}

	// An off-roadmap node is an error.
	fs = newFlagSet()
	s = NewSource(fs, "f", true)
	if err := fs.Parse([]string{"-node", "3"}); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Description(); err == nil {
		t.Error("bad node: no error")
	}
}

func TestSourceFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "dev.dram")
	if err := os.WriteFile(path, []byte(desc.Format(desc.Sample1GbDDR3())), 0o644); err != nil {
		t.Fatal(err)
	}
	fs := newFlagSet()
	s := NewSource(fs, "desc", false)
	if err := fs.Parse([]string{"-desc", path}); err != nil {
		t.Fatal(err)
	}
	if !s.Explicit() || s.File() != path {
		t.Errorf("file flag not picked up: %+v", s)
	}
	d, err := s.Description()
	if err != nil {
		t.Fatal(err)
	}
	if d.Name != desc.Sample1GbDDR3().Name || s.Label() != d.Name {
		t.Errorf("file description %q label %q", d.Name, s.Label())
	}
}

func TestLoadOverlay(t *testing.T) {
	if ov, err := LoadOverlay(""); ov != nil || err != nil {
		t.Errorf("empty path: overlay = %+v, err = %v, want nil, nil", ov, err)
	}
	path := filepath.Join(t.TempDir(), "m.calib")
	if err := os.WriteFile(path, []byte("Calibration measured\nidd0 = 58mA\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	ov, err := LoadOverlay(path)
	if err != nil || ov == nil || ov.Name != "measured" || len(ov.Entries) != 1 {
		t.Fatalf("overlay = %+v, err = %v", ov, err)
	}

	bad := filepath.Join(t.TempDir(), "bad.calib")
	if err := os.WriteFile(bad, []byte("bogus = 1mA\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadOverlay(bad); err == nil || !strings.Contains(err.Error(), bad) {
		t.Errorf("bad overlay: err = %v, want one naming the file", err)
	}
}
