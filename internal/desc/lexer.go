package desc

import (
	"io"
	"strings"

	"drampower/internal/codec"
)

// line is one logical input line: its 1-based number and its fields.
type line struct {
	num    int
	fields []field
}

// field is one whitespace-separated token of a line, either a bare word
// (key == "") or a key=value attribute. col is the 1-based column of the
// field's first byte in the raw input line, so parse errors can point at
// the offending token.
type field struct {
	key, value string
	col        int
}

// bare reports whether the field is a bare word.
func (f field) bare() bool { return f.key == "" }

// text returns the raw text of the field for error messages.
func (f field) text() string {
	if f.bare() {
		return f.value
	}
	return f.key + "=" + f.value
}

// token is a raw whitespace-separated token with its 1-based column.
type token struct {
	text string
	col  int
}

// splitTokens splits a line into tokens, recording each token's column.
func splitTokens(text string) []token {
	var toks []token
	i := 0
	for i < len(text) {
		for i < len(text) && (text[i] == ' ' || text[i] == '\t' || text[i] == '\r') {
			i++
		}
		start := i
		for i < len(text) && text[i] != ' ' && text[i] != '\t' && text[i] != '\r' {
			i++
		}
		if i > start {
			toks = append(toks, token{text: text[start:i], col: start + 1})
		}
	}
	return toks
}

// lex splits the input into logical lines of fields (see lexLine). A
// reader failure is a positioned *ParseError too, at the line after the
// last complete one, with the failure as Err.
func lex(r io.Reader) ([]line, error) {
	var lines []line
	sc := codec.NewLineScanner(r, "desc", 64*1024, 1024*1024, lexLine)
	for sc.Scan() {
		lines = append(lines, sc.Record())
	}
	return lines, sc.Err()
}

// lexLine splits input line num into fields; ok is false for a line
// without any. Comments start with '#' or '//' and run to end of line.
// Tokens of the form "a = b", "a= b" and "a =b" are normalized to the
// attribute a=b, matching the free-form spacing the paper's excerpts use
// ("Vertical blocks = A1 P1 P2 P1 A1", "Pattern loop= act nop ..."). Every
// field keeps the column of its first byte; lexing problems surface as
// positioned *ParseError values.
func lexLine(b []byte, num int) (ln line, ok bool, err error) {
	text := string(b)
	if i := strings.Index(text, "#"); i >= 0 {
		text = text[:i]
	}
	if i := strings.Index(text, "//"); i >= 0 {
		text = text[:i]
	}
	toks := splitTokens(text)
	if len(toks) == 0 {
		return line{}, false, nil
	}
	if toks, err = normalizeEquals(toks, num); err != nil {
		return line{}, false, err
	}
	ln.num = num
	for _, t := range toks {
		if k, v, ok := strings.Cut(t.text, "="); ok {
			ln.fields = append(ln.fields, field{key: k, value: v, col: t.col})
		} else {
			ln.fields = append(ln.fields, field{value: t.text, col: t.col})
		}
	}
	return ln, true, nil
}

// normalizeEquals joins "a = b" and "a=" "b" and "a" "=b" token triples /
// pairs into single "a=b" tokens, keeping the column of the leftmost piece.
// A trailing "key=" with nothing after it on the line is left as-is (empty
// value). Errors are positioned at the offending '=' of line num.
func normalizeEquals(toks []token, num int) ([]token, error) {
	var out []token
	for i := 0; i < len(toks); i++ {
		t := toks[i]
		switch {
		case t.text == "=":
			if len(out) == 0 {
				return nil, errAt(num, t.col, "dangling '='")
			}
			prev := out[len(out)-1]
			if strings.Contains(prev.text, "=") {
				return nil, errAt(num, t.col, "unexpected '=' after %q", prev.text)
			}
			if i+1 < len(toks) {
				out[len(out)-1].text = prev.text + "=" + toks[i+1].text
				i++
			} else {
				out[len(out)-1].text = prev.text + "="
			}
		case strings.HasSuffix(t.text, "=") && i+1 < len(toks) && !strings.Contains(toks[i+1].text, "="):
			out = append(out, token{text: t.text + toks[i+1].text, col: t.col})
			i++
		case strings.HasPrefix(t.text, "=") && len(out) > 0 && !strings.Contains(out[len(out)-1].text, "="):
			out[len(out)-1].text += t.text
		default:
			out = append(out, t)
		}
	}
	return out, nil
}
