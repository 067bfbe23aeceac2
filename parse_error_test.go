package drampower

import (
	"bytes"
	"errors"
	"io"
	"strings"
	"testing"
	"testing/iotest"
)

// errStreamBroke is the reader failure injected behind the valid prefix of
// a streaming input.
var errStreamBroke = errors.New("stream broke")

// brokenAfter returns a reader that yields prefix and then fails with
// errStreamBroke.
func brokenAfter(prefix []byte) io.Reader {
	return io.MultiReader(bytes.NewReader(prefix), iotest.ErrReader(errStreamBroke))
}

// Positions of the three input languages' parse errors, each recovered
// through its facade name.
func descPos(err error) (line, col int, ok bool) {
	var pe *ParseError
	if !errors.As(err, &pe) {
		return 0, 0, false
	}
	return pe.Line, pe.Col, true
}

func tracePos(err error) (line, col int, ok bool) {
	var pe *TraceParseError
	if !errors.As(err, &pe) {
		return 0, 0, false
	}
	return pe.Line, pe.Col, true
}

func accessPos(err error) (line, col int, ok bool) {
	var pe *AccessParseError
	if !errors.As(err, &pe) {
		return 0, 0, false
	}
	return pe.Line, pe.Col, true
}

// scanTrace drains a command-trace source and returns its error.
func scanTrace(src TraceSource) error {
	for src.Scan() {
	}
	return src.Err()
}

// scanTraceN drains a command-trace source like scanTrace and checks that
// it yielded want commands before its error.
func scanTraceN(t *testing.T, src TraceSource, want int) error {
	t.Helper()
	n := 0
	for src.Scan() {
		n++
	}
	if n != want {
		t.Errorf("scanned %d commands before the error, want %d", n, want)
	}
	return src.Err()
}

// scanAccess drains an access-trace source and returns its error.
func scanAccess(src AccessSource) error {
	for src.Scan() {
	}
	return src.Err()
}

// scanAccessN drains an access-trace source like scanAccess and checks
// that it yielded want requests before its error.
func scanAccessN(t *testing.T, src AccessSource, want int) error {
	t.Helper()
	n := 0
	for src.Scan() {
		n++
	}
	if n != want {
		t.Errorf("scanned %d requests before the error, want %d", n, want)
	}
	return src.Err()
}

func parseDesc(src string) error {
	_, err := ParseString(src)
	return err
}

// dtbWith encodes two valid commands in the dtb format and appends tail.
func dtbWith(t *testing.T, tail ...byte) []byte {
	t.Helper()
	var b bytes.Buffer
	cmds := []Command{{Slot: 0, Op: OpActivate, Bank: 1, Row: 7}, {Slot: 11, Op: OpRead, Bank: 1, Row: 7}}
	if err := WriteBinaryTrace(&b, cmds); err != nil {
		t.Fatal(err)
	}
	return append(b.Bytes(), tail...)
}

// dabWith encodes two valid requests in the .dab format and appends tail.
func dabWith(t *testing.T, tail ...byte) []byte {
	t.Helper()
	var b bytes.Buffer
	reqs := []AccessRequest{{Slot: 0, Addr: 0x2400}, {Slot: 12, Write: true, Addr: 0x2401}}
	if err := WriteBinaryAccessTrace(&b, reqs); err != nil {
		t.Fatal(err)
	}
	return append(b.Bytes(), tail...)
}

// TestParseErrorTexts pins the complete message and position of a
// malformed input in each of the three input languages (descriptor,
// command trace text and dtb, access trace text and .dab), plus a reader
// failure behind every reader, the descriptor's included, which must be
// positioned after the input read before it and stay reachable through
// errors.Is. A text line the failure cut is never parsed: the failure is
// reported at that line.
func TestParseErrorTexts(t *testing.T) {
	cases := []struct {
		name      string
		run       func() error
		pos       func(error) (int, int, bool)
		want      string
		line, col int  // want position; both zero with unpositioned
		unposed   bool // the error carries no position at all
		cause     error
	}{
		{
			name: "desc value error",
			run:  func() error { return parseDesc("Technology\nCellCap 2x4fF\n") },
			pos:  descPos,
			want: `desc: line 2, col 9: technology parameter CellCap: units: unknown SI prefix "x4f" in "2x4fF"`,
			line: 2, col: 9,
		},
		{
			name: "desc attribute value error",
			run:  func() error { return parseDesc("Specification\nTiming tRCD=13.75ns tRC=abc\n") },
			pos:  descPos,
			want: `desc: line 2, col 21: attribute tRC: units: "abc" has no numeric part`,
			line: 2, col: 21,
		},
		{
			name: "desc unknown technology parameter",
			run:  func() error { return parseDesc("Technology\nCellCapacity 24fF\n") },
			pos:  descPos,
			want: `desc: line 2, col 1: unknown technology parameter "CellCapacity"`,
			line: 2, col: 1,
		},
		{
			name: "desc whole-line error",
			run:  func() error { return parseDesc("Technology\nCellCap 24fF extra\n") },
			pos:  descPos,
			want: `desc: line 2: technology parameters are 'Name value' lines`,
			line: 2, col: 0,
		},
		{
			name: "desc lexer '=' error",
			run:  func() error { return parseDesc("Specification\nIO width=16 = 4\n") },
			pos:  descPos,
			want: `desc: line 2, col 13: unexpected '=' after "width=16"`,
			line: 2, col: 13,
		},
		{
			name: "desc dangling '='",
			run:  func() error { return parseDesc("\n= 4\n") },
			pos:  descPos,
			want: `desc: line 2, col 1: dangling '='`,
			line: 2, col: 1,
		},
		{
			name:  "desc reader failure",
			run:   func() error { _, err := Parse(brokenAfter([]byte("Technology\n"))); return err },
			pos:   descPos,
			want:  `desc: line 2: stream broke`,
			line:  2,
			cause: errStreamBroke,
		},
		{
			name:  "desc reader failure mid-line",
			run:   func() error { _, err := Parse(brokenAfter([]byte("Technology\nCellCap 24f"))); return err },
			pos:   descPos,
			want:  `desc: line 2: stream broke`,
			line:  2,
			cause: errStreamBroke,
		},
		{
			name: "trace unknown operation",
			run:  func() error { return scanTrace(NewTraceScanner(strings.NewReader("0 act 0 1\n5 bogus 0\n"))) },
			pos:  tracePos,
			want: `trace: line 2, col 3: unknown operation "bogus" (want nop, act, pre, rd, wrt, ref, pde, pdx, sre or srx)`,
			line: 2, col: 3,
		},
		{
			name: "trace bad slot",
			run:  func() error { return scanTrace(NewTraceScanner(strings.NewReader("  x act\n"))) },
			pos:  tracePos,
			want: `trace: line 1, col 3: bad slot "x" (want integer)`,
			line: 1, col: 3,
		},
		{
			name: "trace whole-line error",
			run:  func() error { return scanTrace(NewTraceScanner(strings.NewReader("0 act 0 1\n# idle\n7 # no op\n"))) },
			pos:  tracePos,
			want: `trace: line 3: missing operation`,
			line: 3, col: 0,
		},
		{
			name:  "trace reader failure",
			run:   func() error { return scanTrace(NewTraceScanner(brokenAfter([]byte("0 act 0 1\n11 rd 0 1\n")))) },
			pos:   tracePos,
			want:  `trace: line 3: stream broke`,
			line:  3,
			cause: errStreamBroke,
		},
		{
			name: "trace reader failure mid-line",
			run: func() error {
				return scanTraceN(t, NewTraceScanner(brokenAfter([]byte("0 act 0 1\n11 rd 0 1\n20 pre 0 1"))), 2)
			},
			pos:   tracePos,
			want:  `trace: line 3: stream broke`,
			line:  3,
			cause: errStreamBroke,
		},
		{
			name: "dtb reserved flags",
			run:  func() error { return scanTrace(NewBinaryTraceScanner(bytes.NewReader(dtbWith(t, 0xC1, 0x02)))) },
			pos:  tracePos,
			want: `trace: line 3: reserved flag bits 0xc0 set`,
			line: 3,
		},
		{
			name: "dtb bad magic",
			run:  func() error { return scanTrace(NewBinaryTraceScanner(strings.NewReader("\xd7DTX\x01\x00\x00"))) },
			pos:  tracePos,
			want: `trace: line 1: bad magic "\xd7DTX" (not a dtb binary trace)`,
			line: 1,
		},
		{
			name:  "dtb reader failure",
			run:   func() error { return scanTraceN(t, NewBinaryTraceScanner(brokenAfter(dtbWith(t))), 2) },
			pos:   tracePos,
			want:  `trace: line 3: stream broke`,
			line:  3,
			cause: errStreamBroke,
		},
		{
			name: "access unknown operation",
			run:  func() error { return scanAccess(NewAccessScanner(strings.NewReader("0 r 0x10\n1 x 5\n"))) },
			pos:  accessPos,
			want: `access: line 2, col 3: unknown operation "x" (want r or w)`,
			line: 2, col: 3,
		},
		{
			name: "access whole-line error",
			run:  func() error { return scanAccess(NewAccessScanner(strings.NewReader("0 r\n"))) },
			pos:  accessPos,
			want: `access: line 1: missing address`,
			line: 1, col: 0,
		},
		{
			name:  "access reader failure",
			run:   func() error { return scanAccess(NewAccessScanner(brokenAfter([]byte("0 r 0x10\n")))) },
			pos:   accessPos,
			want:  `access: line 2: stream broke`,
			line:  2,
			cause: errStreamBroke,
		},
		{
			name:  "access reader failure mid-line",
			run:   func() error { return scanAccessN(t, NewAccessScanner(brokenAfter([]byte("0 r 0x10\n5 w 0x2"))), 1) },
			pos:   accessPos,
			want:  `access: line 2: stream broke`,
			line:  2,
			cause: errStreamBroke,
		},
		{
			name: "dab reserved flags",
			run:  func() error { return scanAccess(NewBinaryAccessScanner(bytes.NewReader(dabWith(t, 0x02, 0x00, 0x00)))) },
			pos:  accessPos,
			want: `access: line 3: reserved flag bits 0x02 set`,
			line: 3,
		},
		{
			name:  "dab truncated record",
			run:   func() error { return scanAccess(NewBinaryAccessScanner(bytes.NewReader(dabWith(t, 0x01)))) },
			pos:   accessPos,
			want:  `access: line 3: truncated request record`,
			line:  3,
			cause: io.ErrUnexpectedEOF,
		},
		{
			name:  "dab reader failure",
			run:   func() error { return scanAccess(NewBinaryAccessScanner(brokenAfter(dabWith(t)))) },
			pos:   accessPos,
			want:  `access: line 3: stream broke`,
			line:  3,
			cause: errStreamBroke,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.run()
			if err == nil {
				t.Fatal("accepted malformed input")
			}
			if got := err.Error(); got != tc.want {
				t.Errorf("Error():\n got %s\nwant %s", got, tc.want)
			}
			line, col, ok := tc.pos(err)
			if ok == tc.unposed {
				t.Fatalf("positioned = %v, want %v (error %T)", ok, !tc.unposed, err)
			}
			if line != tc.line || col != tc.col {
				t.Errorf("position: got line %d col %d, want line %d col %d", line, col, tc.line, tc.col)
			}
			if tc.cause != nil && !errors.Is(err, tc.cause) {
				t.Errorf("errors.Is(err, %v) = false, want the cause reachable", tc.cause)
			}
		})
	}
}
