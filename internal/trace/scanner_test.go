package trace

import (
	"bytes"
	"errors"
	"io"
	"math"
	"strings"
	"testing"

	"drampower/internal/desc"
)

func TestScannerRoundTrip(t *testing.T) {
	m := model(t)
	// The largest slots in range must scan back too, not trip the
	// overflow guard.
	cmds := append(RandomClosedPage(m, 50, 0.5, 3),
		Command{Slot: math.MaxInt64 - 7, Op: desc.OpNop},
		Command{Slot: math.MaxInt64, Op: desc.OpRefresh})
	var buf bytes.Buffer
	if err := WriteTrace(&buf, cmds); err != nil {
		t.Fatal(err)
	}
	sc := NewScanner(&buf)
	var got []Command
	for sc.Scan() {
		got = append(got, sc.Command())
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if len(got) != len(cmds) {
		t.Fatalf("round trip: got %d commands, want %d", len(got), len(cmds))
	}
	for i := range cmds {
		if got[i] != cmds[i] {
			t.Fatalf("command %d: got %v, want %v", i, got[i], cmds[i])
		}
	}
}

func TestScannerFormat(t *testing.T) {
	src := strings.Join([]string{
		"# header comment",
		"",
		"   ",
		"0 act 2 17",
		"\t11\trd\t2\t17   # inline comment",
		"28 PRE 2", // row omitted, case-insensitive op
		"100 ref",  // bank and row omitted
		"110 write 1 5",
		"120 nop # alias-free",
	}, "\n")
	want := []Command{
		{Slot: 0, Op: desc.OpActivate, Bank: 2, Row: 17},
		{Slot: 11, Op: desc.OpRead, Bank: 2, Row: 17},
		{Slot: 28, Op: desc.OpPrecharge, Bank: 2},
		{Slot: 100, Op: desc.OpRefresh},
		{Slot: 110, Op: desc.OpWrite, Bank: 1, Row: 5},
		{Slot: 120, Op: desc.OpNop},
	}
	sc := NewScanner(strings.NewReader(src))
	for i, w := range want {
		if !sc.Scan() {
			t.Fatalf("Scan stopped at command %d: %v", i, sc.Err())
		}
		if sc.Command() != w {
			t.Errorf("command %d: got %v, want %v", i, sc.Command(), w)
		}
	}
	if sc.Scan() {
		t.Errorf("extra command %v", sc.Command())
	}
	if err := sc.Err(); err != nil {
		t.Errorf("clean input reported error: %v", err)
	}
}

func TestScannerErrors(t *testing.T) {
	cases := []struct {
		name, src         string
		wantLine, wantCol int
		wantSub           string
	}{
		{"bad slot", "x act 0 0\n", 1, 1, "bad slot"},
		{"negative slot", "-3 act 0 0\n", 1, 1, "negative slot"},
		{"missing op", "# c\n42\n", 2, 0, "missing operation"},
		{"unknown op", "0 jump 0 0\n", 1, 3, "unknown operation"},
		{"bad bank", "0 act banana\n", 1, 7, "bad bank"},
		{"bad row", "0 act 0 1.5\n", 1, 9, "bad row"},
		{"trailing field", "0 act 0 0 extra\n", 1, 11, "trailing field"},
		{"slot overflow", "9223372036854775808 nop\n", 1, 1, "bad slot"},
		{"slot underflow", "-9223372036854775809 nop\n", 1, 1, "bad slot"},
		{"slot MinInt64", "-9223372036854775808 nop\n", 1, 1, "negative slot -9223372036854775808"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			sc := NewScanner(strings.NewReader(c.src))
			for sc.Scan() {
			}
			err := sc.Err()
			if err == nil {
				t.Fatalf("expected error containing %q, got nil", c.wantSub)
			}
			var pe *ParseError
			if !errors.As(err, &pe) {
				t.Fatalf("error is %T, want *ParseError", err)
			}
			if pe.Line != c.wantLine || pe.Col != c.wantCol {
				t.Errorf("position: got line %d col %d, want line %d col %d (%v)",
					pe.Line, pe.Col, c.wantLine, c.wantCol, pe)
			}
			if !strings.Contains(err.Error(), c.wantSub) {
				t.Errorf("error %q does not contain %q", err, c.wantSub)
			}
			// The error is sticky: Scan keeps returning false.
			if sc.Scan() {
				t.Error("Scan returned true after an error")
			}
		})
	}
}

// failAfterReader yields its content, then fails with err.
type failAfterReader struct {
	content string
	err     error
	done    bool
}

func (r *failAfterReader) Read(p []byte) (int, error) {
	if !r.done {
		r.done = true
		return copy(p, r.content), nil
	}
	return 0, r.err
}

func TestScannerReaderErrorUnwraps(t *testing.T) {
	// A stream failure surfaces as a positioned ParseError that still
	// unwraps to the reader's own error, so callers can tell I/O outcomes
	// (cancelled context, body-size cap) apart from bad trace text.
	cause := errors.New("stream torn down")
	sc := NewScanner(&failAfterReader{content: "0 act 0 0\n", err: cause})
	n := 0
	for sc.Scan() {
		n++
	}
	if n != 1 {
		t.Fatalf("scanned %d commands before the failure, want 1", n)
	}
	err := sc.Err()
	var pe *ParseError
	if !errors.As(err, &pe) {
		t.Fatalf("error is %T, want *ParseError", err)
	}
	if pe.Line != 2 {
		t.Errorf("failure position: line %d, want 2", pe.Line)
	}
	if !errors.Is(err, cause) {
		t.Errorf("error %v does not unwrap to the reader error", err)
	}
	// Ordinary syntax errors unwrap to nothing.
	sc = NewScanner(strings.NewReader("x act\n"))
	for sc.Scan() {
	}
	if !errors.As(sc.Err(), &pe) {
		t.Fatalf("syntax error is %T, want *ParseError", sc.Err())
	}
	if pe.Unwrap() != nil {
		t.Errorf("syntax error unwraps to %v, want nil", pe.Unwrap())
	}
}

// Neither the scanner nor the text writer performs per-line
// allocations: scanning or writing thousands of lines costs only the
// fixed setup.
func TestScannerAllocationFree(t *testing.T) {
	m := model(t)
	cmds := RandomClosedPage(m, 3000, 0.5, 5)
	var buf bytes.Buffer
	if err := WriteTrace(&buf, cmds); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	lines := bytes.Count(data, []byte{'\n'})
	if allocs := testing.AllocsPerRun(5, func() {
		if err := WriteTrace(io.Discard, cmds); err != nil {
			panic(err)
		}
	}); allocs > 8 {
		t.Errorf("writing %d lines cost %.0f allocs, want <= 8 (setup only)", lines, allocs)
	}
	allocs := testing.AllocsPerRun(5, func() {
		sc := NewScanner(bytes.NewReader(data))
		n := 0
		for sc.Scan() {
			n++
		}
		if sc.Err() != nil || n != lines {
			panic("scan failed")
		}
	})
	if allocs > 8 {
		t.Errorf("scanning %d lines cost %.0f allocs, want <= 8 (setup only)", lines, allocs)
	}
}

func TestRunStreamMatchesRun(t *testing.T) {
	m := model(t)
	cmds := RandomClosedPage(m, 300, 0.5, 9)
	var buf bytes.Buffer
	if err := WriteTrace(&buf, cmds); err != nil {
		t.Fatal(err)
	}

	ref := New(m)
	if err := ref.Run(cmds); err != nil {
		t.Fatal(err)
	}
	st := NewReplayer(m, ReplayOptions{Channels: 1})
	if err := st.ReplaySource(NewScanner(&buf)); err != nil {
		t.Fatal(err)
	}
	end := ref.Now() + int64(m.BurstSlots())
	a, b := ref.Result(end), st.Result(end)
	if a.CommandEnergy != b.CommandEnergy || a.Bits != b.Bits || a.Slots != b.Slots {
		t.Errorf("stream result differs from in-memory run:\n run:    %+v\n stream: %+v", a, b)
	}
}

func TestRunStreamSurfacesTimingError(t *testing.T) {
	m := model(t)
	r := NewReplayer(m, ReplayOptions{Channels: 1})
	err := r.ReplaySource(NewScanner(strings.NewReader("0 rd 0 1\n")))
	var te *TimingError
	if !errors.As(err, &te) {
		t.Fatalf("error is %T (%v), want *TimingError", err, err)
	}
}
