// Package codec holds the byte-level primitives the command-trace
// (internal/trace) and access-trace (internal/ctl) formats share: the
// field lexer of the two text formats, overflow-bounded integer parsing,
// the zigzag varints of the two binary formats, and the first-byte sniff
// that tells a binary stream from text. The accept paths allocate
// nothing, and the lexer and zigzag helpers are small enough to inline at
// the scanners' call sites. ParseError is the one positioned error of all
// three input languages, the descriptor (internal/desc) included.
package codec

import (
	"fmt"
	"io"
	"math"
)

// ParseError reports malformed input at a position. Lang names the input
// language and prefixes the message: "desc", "trace" or "access". Line is
// 1-based; for a binary encoding it is the ordinal of the offending
// record. Col is the 1-based byte column of the offending field, or 0
// when the problem concerns the whole line or record. Err is the reader
// failure behind a stream error and nil for bad input; Unwrap returns it,
// as os.PathError does, so errors.Is reaches a cancelled context or an
// http.MaxBytesError through the position.
type ParseError struct {
	Lang string
	Line int
	Col  int
	Msg  string
	Err  error
}

// Error renders "<lang>: line N, col M: msg", without ", col M" when Col
// is 0.
func (e *ParseError) Error() string {
	if e.Col > 0 {
		return fmt.Sprintf("%s: line %d, col %d: %s", e.Lang, e.Line, e.Col, e.Msg)
	}
	return fmt.Sprintf("%s: line %d: %s", e.Lang, e.Line, e.Msg)
}

// Unwrap returns the reader failure behind a stream error, nil for bad
// input.
func (e *ParseError) Unwrap() error { return e.Err }

// IsSpace reports whether c separates fields in the text formats.
func IsSpace(c byte) bool { return c == ' ' || c == '\t' || c == '\r' }

// SkipSpace returns the index of the first non-space byte at or after i.
func SkipSpace(b []byte, i int) int {
	for i < len(b) && IsSpace(b[i]) {
		i++
	}
	return i
}

// EndOfField returns the index just past the field starting at i: the
// next space, the '#' that starts a comment, or the end of b.
func EndOfField(b []byte, i int) int {
	for i < len(b) && !IsSpace(b[i]) && b[i] != '#' {
		i++
	}
	return i
}

// Field extracts the field starting at i for error messages (this path
// may allocate; the accept path never calls it).
func Field(b []byte, i int) string { return string(b[i:EndOfField(b, i)]) }

// EqFold reports whether b equals the lower-case string s under ASCII
// case folding, without allocating.
func EqFold(b []byte, s string) bool {
	if len(b) != len(s) {
		return false
	}
	for i := 0; i < len(b); i++ {
		c := b[i]
		if 'A' <= c && c <= 'Z' {
			c += 'a' - 'A'
		}
		if c != s[i] {
			return false
		}
	}
	return true
}

// atFieldEnd reports whether a number ending at j ends its field.
func atFieldEnd(b []byte, j int) bool {
	return j == len(b) || IsSpace(b[j]) || b[j] == '#'
}

// ParseUint decodes a non-negative decimal integer field starting at i
// without allocating. It returns the value, the index just past the
// digits, and whether the field was a well-formed integer in int64 range
// ending at a field boundary.
func ParseUint(b []byte, i int) (int64, int, bool) { return parseDecimal(b, i, false) }

// ParseInt is ParseUint behind an optional '-' or '+' sign; behind '-'
// the range extends to math.MinInt64.
func ParseInt(b []byte, i int) (int64, int, bool) { return parseDecimal(b, i, true) }

func parseDecimal(b []byte, i int, signed bool) (int64, int, bool) {
	neg := false
	if signed && i < len(b) && (b[i] == '-' || b[i] == '+') {
		neg = b[i] == '-'
		i++
	}
	// The magnitude accumulates unsigned against the bound of its sign:
	// MaxInt64, or MaxInt64+1 behind a '-'.
	limit := uint64(math.MaxInt64)
	if neg {
		limit++
	}
	j := i
	var u uint64
	for j < len(b) && b[j] >= '0' && b[j] <= '9' {
		d := uint64(b[j] - '0')
		// u*10+d fits exactly when u <= (limit-d)/10. Test before the
		// multiply: u*10 can wrap past the limit back into range, so a
		// post-hoc check is not enough. The constant first test, implied
		// by the exact one, keeps the per-digit division off the common
		// path.
		if u > (math.MaxInt64-9)/10 && u > (limit-d)/10 {
			return 0, j, false
		}
		u = u*10 + d
		j++
	}
	if j == i || !atFieldEnd(b, j) {
		return 0, j, false
	}
	if neg {
		return -int64(u), j, true // a magnitude of 1<<63 wraps to MinInt64
	}
	return int64(u), j, true
}

// ParseHex decodes the hex digits of a field starting at i (the caller
// has consumed any 0x prefix), with ParseUint's results and range.
func ParseHex(b []byte, i int) (int64, int, bool) {
	j := i
	var v int64
digits:
	for ; j < len(b); j++ {
		c := b[j]
		var d int64
		switch {
		case c >= '0' && c <= '9':
			d = int64(c - '0')
		case c >= 'a' && c <= 'f':
			d = int64(c-'a') + 10
		case c >= 'A' && c <= 'F':
			d = int64(c-'A') + 10
		default:
			break digits
		}
		if v >= 1<<59 {
			return 0, j, false // v<<4 would overflow int64
		}
		v = v<<4 | d
	}
	if j == i || !atFieldEnd(b, j) {
		return 0, j, false
	}
	return v, j, true
}

// Zigzag folds a signed value into an unsigned varint payload so small
// negative deltas stay short: 0, -1, 1, -2 -> 0, 1, 2, 3.
func Zigzag(v int64) uint64 { return uint64(v<<1) ^ uint64(v>>63) }

// Unzigzag is the inverse of Zigzag.
func Unzigzag(u uint64) int64 { return int64(u>>1) ^ -int64(u&1) }

// AppendVarint appends the zigzag varint encoding of v to dst.
func AppendVarint(dst []byte, v int64) []byte {
	u := Zigzag(v)
	for u >= 0x80 {
		dst = append(dst, byte(u)|0x80)
		u >>= 7
	}
	return append(dst, byte(u))
}

// Sniff reads the first byte of r, which is what tells a binary encoding
// from text, and returns it with a reader that replays it ahead of the
// rest of r. When r yields no byte, first is 0 (no format's magic) and
// rest reports r's error, io.EOF for an empty input, so the caller's text
// scanner reads an empty trace or surfaces the failure through its own
// positioned error path.
func Sniff(r io.Reader) (first byte, rest io.Reader) {
	var b [1]byte
	if n, err := io.ReadFull(r, b[:]); n == 0 {
		return 0, errReader{err}
	}
	return b[0], &oneByteReader{b: b[0], r: r}
}

// oneByteReader replays a sniffed first byte ahead of the rest of r.
type oneByteReader struct {
	b    byte
	done bool
	r    io.Reader
}

func (o *oneByteReader) Read(p []byte) (int, error) {
	if o.done {
		return o.r.Read(p)
	}
	if len(p) == 0 {
		return 0, nil
	}
	o.done = true
	p[0] = o.b
	return 1, nil
}

// errReader fails every read with err.
type errReader struct{ err error }

func (e errReader) Read([]byte) (int, error) { return 0, e.err }
