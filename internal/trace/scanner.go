package trace

// Streaming trace ingestion: a line-oriented text format for command
// traces and an allocation-free Scanner over any io.Reader, so
// multi-gigabyte traces stream through a fixed buffer instead of being
// materialized as a []Command.
//
// The format is one command per line,
//
//	<slot> <op> [<bank> [<row>]]
//
// with fields separated by spaces or tabs, '#' starting a comment that
// runs to the end of the line, and blank lines ignored. <op> is a
// pattern-language mnemonic (nop, act, pre, rd, wrt, ref), one of the
// aliases desc.ParseOp accepts (activate, precharge, read, write, wr,
// refresh), or a power-state command (pde, pdx, sre, srx — power-down and
// self-refresh entry/exit), matched ASCII-case-insensitively. <bank> and
// <row> default to 0 when omitted (refresh, nop and power-state commands
// usually carry neither).
//
//	# one closed-page access on bank 2, then a power-down window
//	0   act 2 17
//	11  rd  2 17
//	28  pre 2 17
//	100 ref
//	200 pde
//	800 pdx

import (
	"bufio"
	"fmt"
	"io"
	"strconv"

	"drampower/internal/codec"
	"drampower/internal/desc"
)

// ParseError is the positioned error of the trace text and dtb scanners
// (see codec.ParseError). Its messages carry the "trace:" prefix; for dtb
// input Line is the 1-based ordinal of the offending command and Col is
// zero. A reader failure is kept in Err, so callers can tell a cancelled
// context or an http.MaxBytesError apart from bad trace text.
type ParseError = codec.ParseError

// parseErr returns a trace ParseError at line and col (0 for a whole-line
// or binary problem); err is the reader failure behind it, if any.
func parseErr(line, col int, msg string, err error) *ParseError {
	return &ParseError{Lang: "trace", Line: line, Col: col, Msg: msg, Err: err}
}

// maxLineBytes bounds a single trace line; a well-formed line is a few
// dozen bytes, so the cap only guards against pathological input.
const maxLineBytes = 1 << 16

// Scanner reads a command trace from an io.Reader one line at a time.
// After construction it performs no per-line heap allocations: lines are
// tokenized in place on the underlying bufio buffer and integers and
// mnemonics are decoded without forming strings (no strings.Split, no
// strconv on the hot path). It is a Source, so Replayer.ReplaySource
// replays it directly; or drain it by hand:
//
//	sc := trace.NewScanner(f)
//	for sc.Scan() {
//		cmd := sc.Command()
//		...
//	}
//	if err := sc.Err(); err != nil { ... }
type Scanner struct {
	*codec.LineScanner[Command]
}

// NewScanner returns a Scanner reading trace text from r.
func NewScanner(r io.Reader) *Scanner {
	return &Scanner{codec.NewLineScanner(r, "trace", 4096, maxLineBytes, parseLine)}
}

// Command returns the command of the last successful Scan.
func (sc *Scanner) Command() Command { return sc.Record() }

// parseLine decodes one trace line. ok is false for blank and
// comment-only lines.
func parseLine(b []byte, line int) (cmd Command, ok bool, err error) {
	i := codec.SkipSpace(b, 0)
	if i >= len(b) || b[i] == '#' {
		return Command{}, false, nil
	}
	slot, j, numOK := codec.ParseInt(b, i)
	if !numOK {
		return Command{}, false, parseErr(line, i+1, fmt.Sprintf("bad slot %q (want integer)", codec.Field(b, i)), nil)
	}
	if slot < 0 {
		return Command{}, false, parseErr(line, i+1, fmt.Sprintf("negative slot %d", slot), nil)
	}
	cmd.Slot = slot

	i = codec.SkipSpace(b, j)
	if i >= len(b) || b[i] == '#' {
		return Command{}, false, parseErr(line, 0, "missing operation", nil)
	}
	j = codec.EndOfField(b, i)
	op, opOK := parseOpBytes(b[i:j])
	if !opOK {
		return Command{}, false, parseErr(line, i+1, fmt.Sprintf("unknown operation %q (want nop, act, pre, rd, wrt, ref, pde, pdx, sre or srx)", codec.Field(b, i)), nil)
	}
	cmd.Op = op

	i = codec.SkipSpace(b, j)
	if i < len(b) && b[i] != '#' {
		bank, k, bankOK := codec.ParseInt(b, i)
		if !bankOK {
			return Command{}, false, parseErr(line, i+1, fmt.Sprintf("bad bank %q (want integer)", codec.Field(b, i)), nil)
		}
		cmd.Bank = int(bank)
		i = codec.SkipSpace(b, k)
	}
	if i < len(b) && b[i] != '#' {
		row, k, rowOK := codec.ParseInt(b, i)
		if !rowOK {
			return Command{}, false, parseErr(line, i+1, fmt.Sprintf("bad row %q (want integer)", codec.Field(b, i)), nil)
		}
		cmd.Row = int(row)
		i = codec.SkipSpace(b, k)
	}
	if i < len(b) && b[i] != '#' {
		return Command{}, false, parseErr(line, i+1, fmt.Sprintf("trailing field %q (want <slot> <op> [<bank> [<row>]])", codec.Field(b, i)), nil)
	}
	return cmd, true, nil
}

// parseOpBytes matches an operation mnemonic ASCII-case-insensitively
// without allocating. The accepted set matches desc.ParseOp.
func parseOpBytes(b []byte) (desc.Op, bool) {
	switch {
	case codec.EqFold(b, "nop"):
		return desc.OpNop, true
	case codec.EqFold(b, "act"), codec.EqFold(b, "activate"):
		return desc.OpActivate, true
	case codec.EqFold(b, "pre"), codec.EqFold(b, "precharge"):
		return desc.OpPrecharge, true
	case codec.EqFold(b, "rd"), codec.EqFold(b, "read"):
		return desc.OpRead, true
	case codec.EqFold(b, "wrt"), codec.EqFold(b, "wr"), codec.EqFold(b, "write"):
		return desc.OpWrite, true
	case codec.EqFold(b, "ref"), codec.EqFold(b, "refresh"):
		return desc.OpRefresh, true
	case codec.EqFold(b, "pde"):
		return OpPowerDownEnter, true
	case codec.EqFold(b, "pdx"):
		return OpPowerDownExit, true
	case codec.EqFold(b, "sre"):
		return OpSelfRefreshEnter, true
	case codec.EqFold(b, "srx"):
		return OpSelfRefreshExit, true
	}
	return 0, false
}

// Writer encodes a command stream in one trace encoding: a TextWriter or
// a BinaryWriter. WriteCommand appends one command; Flush drains the
// buffer and reports the first error of the stream.
type Writer interface {
	WriteCommand(Command) error
	Flush() error
}

// NewWriter returns the Writer of the named encoding, "text" or
// "binary", emitting to w, and false for any other name.
func NewWriter(w io.Writer, encoding string) (Writer, bool) {
	switch encoding {
	case "text":
		return NewTextWriter(w), true
	case "binary":
		return NewBinaryWriter(w), true
	}
	return nil, false
}

// WriteAll writes cmds to tw and flushes it.
func WriteAll(tw Writer, cmds []Command) error {
	for i := range cmds {
		if err := tw.WriteCommand(cmds[i]); err != nil {
			return err
		}
	}
	return tw.Flush()
}

// TextWriter encodes commands in the trace text format, one line per
// command, buffered. Call Flush when done; the writer does not own or
// close the underlying writer.
type TextWriter struct {
	w   *bufio.Writer
	buf []byte // one line, reused
}

// NewTextWriter returns a TextWriter emitting a text trace to w.
func NewTextWriter(w io.Writer) *TextWriter { return &TextWriter{w: bufio.NewWriter(w)} }

// WriteCommand appends the command's line to the stream.
func (tw *TextWriter) WriteCommand(c Command) error {
	tw.buf = AppendCommand(tw.buf[:0], c)
	_, err := tw.w.Write(tw.buf)
	return err
}

// Flush drains the buffer to the underlying writer and reports the first
// error of the stream.
func (tw *TextWriter) Flush() error { return tw.w.Flush() }

// WriteTrace renders commands in the trace text format, one line per
// command, buffered. The output round-trips through NewScanner.
func WriteTrace(w io.Writer, cmds []Command) error { return WriteAll(NewTextWriter(w), cmds) }

// AppendCommand appends the trace-format line for c, including the
// trailing newline, to dst and returns the extended slice.
func AppendCommand(dst []byte, c Command) []byte {
	dst = strconv.AppendInt(dst, c.Slot, 10)
	dst = append(dst, ' ')
	dst = append(dst, OpName(c.Op)...)
	dst = append(dst, ' ')
	dst = strconv.AppendInt(dst, int64(c.Bank), 10)
	dst = append(dst, ' ')
	dst = strconv.AppendInt(dst, int64(c.Row), 10)
	return append(dst, '\n')
}
