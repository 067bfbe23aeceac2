package ctl

// Access-trace ingestion: the text half of the .dab format plus the
// Source interface the scheduler consumes. An access trace is the
// controller-side counterpart of a command trace — timestamped read and
// write requests against a flat physical address space, with no DRAM
// commands in sight; the scheduler turns it into a legal command trace.
//
// The text format is one request per line,
//
//	<slot> <r|w> <addr>
//
// with fields separated by spaces or tabs, '#' starting a comment that
// runs to the end of the line, and blank lines ignored. <slot> is the
// request's arrival time in control-clock slots; <r|w> also accepts rd,
// wr, read and write, ASCII-case-insensitively; <addr> is a non-negative
// flat byte^W burst address, decimal or 0x-prefixed hex.
//
//	# a row hit pair, then a write far away
//	0   r 0x2400
//	12  r 0x2401
//	400 w 0x91f00
//
// The equivalent binary encoding lives in binary.go; NewAccessSource
// sniffs the two apart from the first byte, exactly like trace.NewSource
// does for command traces.

import (
	"bufio"
	"fmt"
	"io"
	"strconv"

	"drampower/internal/codec"
)

// Request is one access-trace entry: a read or write of one burst at a
// flat physical address, arriving at a control-clock slot. Arrival order
// is FIFO — the scheduler requires non-decreasing slots.
type Request struct {
	Slot  int64
	Write bool
	Addr  int64
}

// String renders the request in the text format (without the newline).
func (r Request) String() string {
	op := "r"
	if r.Write {
		op = "w"
	}
	return fmt.Sprintf("%d %s %#x", r.Slot, op, r.Addr)
}

// ParseError is the positioned error of the access-trace text and .dab
// scanners (see codec.ParseError). Its messages carry the "access:"
// prefix; for .dab input Line is the 1-based request ordinal and Col is
// zero.
type ParseError = codec.ParseError

// parseErr returns an access ParseError at line and col (0 for a
// whole-line or binary problem); err is the reader failure behind it, if
// any.
func parseErr(line, col int, msg string, err error) *ParseError {
	return &ParseError{Lang: "access", Line: line, Col: col, Msg: msg, Err: err}
}

// Source is a stream of access requests: the common face of the text
// Scanner, the BinaryScanner and in-memory slices, and what the
// scheduler consumes.
type Source interface {
	Scan() bool
	Request() Request
	Err() error
}

// maxLineBytes bounds a single access-trace line.
const maxLineBytes = 1 << 16

// Scanner reads an access trace from an io.Reader one line at a time,
// with the same allocation discipline as the command-trace scanner:
// lines tokenize in place on the bufio buffer, integers and mnemonics
// decode without forming strings, and only error paths allocate.
type Scanner struct {
	*codec.LineScanner[Request]
}

// NewScanner returns a Scanner reading access-trace text from r.
func NewScanner(r io.Reader) *Scanner {
	return &Scanner{codec.NewLineScanner(r, "access", 4096, maxLineBytes, parseAccessLine)}
}

// Request returns the request of the last successful Scan.
func (sc *Scanner) Request() Request { return sc.Record() }

// parseAccessLine decodes one access-trace line. ok is false for blank
// and comment-only lines.
func parseAccessLine(b []byte, line int) (req Request, ok bool, err error) {
	i := codec.SkipSpace(b, 0)
	if i >= len(b) || b[i] == '#' {
		return Request{}, false, nil
	}
	slot, j, numOK := codec.ParseUint(b, i)
	if !numOK {
		return Request{}, false, parseErr(line, i+1, fmt.Sprintf("bad slot %q (want non-negative integer)", codec.Field(b, i)), nil)
	}
	req.Slot = slot

	i = codec.SkipSpace(b, j)
	if i >= len(b) || b[i] == '#' {
		return Request{}, false, parseErr(line, 0, "missing operation", nil)
	}
	j = codec.EndOfField(b, i)
	w, opOK := parseAccessOp(b[i:j])
	if !opOK {
		return Request{}, false, parseErr(line, i+1, fmt.Sprintf("unknown operation %q (want r or w)", codec.Field(b, i)), nil)
	}
	req.Write = w

	i = codec.SkipSpace(b, j)
	if i >= len(b) || b[i] == '#' {
		return Request{}, false, parseErr(line, 0, "missing address", nil)
	}
	addr, j, addrOK := parseAddr(b, i)
	if !addrOK {
		return Request{}, false, parseErr(line, i+1, fmt.Sprintf("bad address %q (want non-negative integer, decimal or 0x hex)", codec.Field(b, i)), nil)
	}
	req.Addr = addr

	i = codec.SkipSpace(b, j)
	if i < len(b) && b[i] != '#' {
		return Request{}, false, parseErr(line, i+1, fmt.Sprintf("trailing field %q (want <slot> <r|w> <addr>)", codec.Field(b, i)), nil)
	}
	return req, true, nil
}

// parseAddr decodes an address field: decimal, or hex behind 0x/0X.
func parseAddr(b []byte, i int) (int64, int, bool) {
	if i+1 < len(b) && b[i] == '0' && (b[i+1] == 'x' || b[i+1] == 'X') {
		return codec.ParseHex(b, i+2)
	}
	return codec.ParseUint(b, i)
}

// parseAccessOp matches a read/write mnemonic ASCII-case-insensitively.
func parseAccessOp(b []byte) (write, ok bool) {
	switch {
	case codec.EqFold(b, "r"), codec.EqFold(b, "rd"), codec.EqFold(b, "read"):
		return false, true
	case codec.EqFold(b, "w"), codec.EqFold(b, "wr"), codec.EqFold(b, "write"):
		return true, true
	}
	return false, false
}

// AppendRequest appends the access-trace text line for r, including the
// trailing newline, to dst and returns the extended slice. Addresses
// render in hex (the canonical form the scanner round-trips).
func AppendRequest(dst []byte, r Request) []byte {
	dst = strconv.AppendInt(dst, r.Slot, 10)
	if r.Write {
		dst = append(dst, " w 0x"...)
	} else {
		dst = append(dst, " r 0x"...)
	}
	dst = strconv.AppendInt(dst, r.Addr, 16)
	return append(dst, '\n')
}

// WriteAccessTrace renders requests in the access-trace text format, one
// line per request, buffered. The output round-trips through NewScanner.
func WriteAccessTrace(w io.Writer, reqs []Request) error {
	bw := bufio.NewWriter(w)
	var buf []byte
	for i := range reqs {
		buf = AppendRequest(buf[:0], reqs[i])
		if _, err := bw.Write(buf); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// sliceSource adapts an in-memory request slice to the Source interface.
type sliceSource struct {
	reqs []Request
	i    int
}

// NewSliceSource returns a Source over an in-memory request slice.
func NewSliceSource(reqs []Request) Source { return &sliceSource{reqs: reqs} }

func (s *sliceSource) Scan() bool {
	if s.i >= len(s.reqs) {
		return false
	}
	s.i++
	return true
}

func (s *sliceSource) Request() Request { return s.reqs[s.i-1] }

func (s *sliceSource) Err() error { return nil }

// Len reports the requests remaining — the scheduler uses it to pre-size
// its per-channel buffers when the source is an in-memory slice.
func (s *sliceSource) Len() int { return len(s.reqs) - s.i }
