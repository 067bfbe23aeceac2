package codec

import (
	"bufio"
	"bytes"
	"io"
)

// LineScanner is the line loop of the three text front-ends (descriptor,
// command trace, access trace). It reads lines of at most max bytes and
// hands each, without its newline or a trailing "\r\n", to parse, which
// returns the line's record with ok true, ok false for a line without
// one (blank or comment), or a positioned error. An unterminated last
// line is parsed at a clean end of input, but never a line that a reader
// failure cut short: bufio.Scanner alone passes such a fragment on as if
// it were complete, so "28 pr" cut from "28 pre" would fail as a bad
// operation instead of as the failure.
type LineScanner[T any] struct {
	s     *bufio.Scanner
	r     failReader
	lang  string
	line  int
	parse func(b []byte, line int) (rec T, ok bool, err error)
	rec   T
	err   error
}

// NewLineScanner returns a LineScanner reading r for the input language
// lang (the Lang of the errors it reports), with an initial buffer of
// size bytes.
func NewLineScanner[T any](r io.Reader, lang string, size, max int, parse func([]byte, int) (T, bool, error)) *LineScanner[T] {
	ls := &LineScanner[T]{r: failReader{r: r}, lang: lang, parse: parse}
	ls.s = bufio.NewScanner(&ls.r)
	ls.s.Buffer(make([]byte, size), max)
	ls.s.Split(ls.split)
	return ls
}

// split is bufio.ScanLines, except that after a reader failure it holds
// back the unterminated rest of the input instead of returning it as the
// last line.
func (ls *LineScanner[T]) split(data []byte, atEOF bool) (int, []byte, error) {
	if atEOF && ls.r.err != nil && bytes.IndexByte(data, '\n') < 0 {
		return 0, nil, nil
	}
	return bufio.ScanLines(data, atEOF)
}

// Scan advances to the next record. It returns false at the end of input
// or on the first error; Err tells the two apart.
func (ls *LineScanner[T]) Scan() bool {
	if ls.err != nil {
		return false
	}
	for ls.s.Scan() {
		ls.line++
		rec, ok, err := ls.parse(ls.s.Bytes(), ls.line)
		if err != nil {
			ls.err = err
			return false
		}
		if ok {
			ls.rec = rec
			return true
		}
	}
	if err := ls.s.Err(); err != nil {
		// The failure falls in the line after the last complete one: the
		// line it cut, if any.
		ls.err = &ParseError{Lang: ls.lang, Line: ls.line + 1, Msg: err.Error(), Err: err}
	}
	return false
}

// Record returns the record of the last successful Scan.
func (ls *LineScanner[T]) Record() T { return ls.rec }

// Err returns the first error (a *ParseError whose Err is the reader
// failure behind a stream error, bufio.ErrTooLong for an over-long
// line), or nil after a clean end of input.
func (ls *LineScanner[T]) Err() error { return ls.err }

// Line returns the 1-based number of the last line read.
func (ls *LineScanner[T]) Line() int { return ls.line }

// failReader records the first read failure other than io.EOF.
type failReader struct {
	r   io.Reader
	err error
}

func (f *failReader) Read(p []byte) (int, error) {
	n, err := f.r.Read(p)
	if err != nil && err != io.EOF && f.err == nil {
		f.err = err
	}
	return n, err
}
