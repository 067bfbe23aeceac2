package codec

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"
	"testing"
	"testing/iotest"
	"testing/quick"
)

// refField is the field starting at i as the text formats delimit it: up
// to the next space, tab, CR or '#'.
func refField(b []byte, i int) []byte {
	f := b[i:]
	if k := bytes.IndexAny(f, " \t\r#"); k >= 0 {
		f = f[:k]
	}
	return f
}

// refParse is strconv's answer for a field, with codec's documented
// differences: unsigned fields take no sign, and hex fields have no 0x
// prefix (base 16 never accepts one).
func refParse(f []byte, base int, signed bool) (int64, bool) {
	if !signed && len(f) > 0 && (f[0] == '+' || f[0] == '-') {
		return 0, false
	}
	v, err := strconv.ParseInt(string(f), base, 64)
	return v, err == nil
}

func checkParse(t *testing.T, b []byte, i int) {
	t.Helper()
	f := refField(b, i)
	end := i + len(f)
	for _, c := range []struct {
		name   string
		parse  func([]byte, int) (int64, int, bool)
		base   int
		signed bool
	}{
		{"ParseInt", ParseInt, 10, true},
		{"ParseUint", ParseUint, 10, false},
		{"ParseHex", ParseHex, 16, false},
	} {
		v, j, ok := c.parse(b, i)
		want, wantOK := refParse(f, c.base, c.signed)
		if ok != wantOK || (ok && (v != want || j != end)) {
			t.Errorf("%s(%q, %d) = %d, %d, %v; strconv says %d, ok %v (field ends at %d)",
				c.name, b, i, v, j, ok, want, wantOK, end)
		}
	}
}

func TestParseEdges(t *testing.T) {
	for _, s := range []string{
		"0", "-0", "+0", "7", "-7", "+7", "", "-", "+", "--1", "+-1",
		"9223372036854775807", "9223372036854775808", "-9223372036854775808",
		"-9223372036854775809", "99999999999999999999", "18446744073709551616",
		"7fffffffffffffff", "8000000000000000", "ffffffffffffffff", "0x10",
		"12 34", "12\t", "12\r", "12#c", "12\n", "1a", "ABCdef", "00000000000000000000001",
	} {
		checkParse(t, []byte(s), 0)
	}
	if v, _, ok := ParseInt([]byte("-9223372036854775808"), 0); !ok || v != math.MinInt64 {
		t.Errorf("ParseInt(MinInt64) = %d, %v", v, ok)
	}
}

// FuzzParse checks the three integer parsers against strconv on value,
// acceptance and the end index, from an arbitrary start offset:
//
//	go test ./internal/codec -run '^$' -fuzz FuzzParse
func FuzzParse(f *testing.F) {
	for _, s := range []string{"0", "-9223372036854775808", "9223372036854775807 x", "ff#", "+12\t3", "abc"} {
		f.Add(s, uint8(0))
	}
	f.Fuzz(func(t *testing.T, s string, start uint8) {
		b := []byte(s)
		checkParse(t, b, int(start)%(len(b)+1))
	})
}

func TestZigzag(t *testing.T) {
	for i, v := range []int64{0, -1, 1, -2, 2} {
		if got := Zigzag(v); got != uint64(i) {
			t.Errorf("Zigzag(%d) = %d, want %d", v, got, i)
		}
	}
	roundTrip := func(v int64) bool { return Unzigzag(Zigzag(v)) == v }
	for _, v := range []int64{math.MinInt64, math.MaxInt64, math.MinInt64 + 1, math.MaxInt64 - 1} {
		if !roundTrip(v) {
			t.Errorf("Unzigzag(Zigzag(%d)) = %d", v, Unzigzag(Zigzag(v)))
		}
	}
	if err := quick.Check(roundTrip, nil); err != nil {
		t.Error(err)
	}
}

// TestAppendVarint round-trips the varint encoding through
// encoding/binary, whose signed varint is the same zigzag form.
func TestAppendVarint(t *testing.T) {
	roundTrip := func(prefix []byte, v int64) bool {
		got := AppendVarint(append([]byte(nil), prefix...), v)
		if !bytes.Equal(got, binary.AppendVarint(append([]byte(nil), prefix...), v)) {
			return false
		}
		u, n := binary.Uvarint(got[len(prefix):])
		return n == len(got)-len(prefix) && Unzigzag(u) == v
	}
	for _, v := range []int64{0, -1, 1, 63, -64, 64, -65, math.MinInt64, math.MaxInt64} {
		if !roundTrip([]byte{0xD7}, v) {
			t.Errorf("AppendVarint(%d) = % x, does not round-trip", v, AppendVarint(nil, v))
		}
	}
	if err := quick.Check(roundTrip, nil); err != nil {
		t.Error(err)
	}
}

// TestVarintDecoders checks the three varint readers of the binary
// decoders against encoding/binary on values of every bit length, each
// followed by junk bytes: Uvarint decodes any encoding and reports one
// cut short as size 0, FastVarint only those of one or two bytes and
// WordVarint only those of at most eight, each returning size 0 for a
// longer one. A tenth byte above 1 overflows 64 bits, continuation bit or
// not.
func TestVarintDecoders(t *testing.T) {
	rng := uint64(1)
	for bitLen := 0; bitLen <= 64; bitLen++ {
		for k := 0; k < 16; k++ {
			rng = rng*6364136223846793005 + 1442695040888963407
			var u uint64
			if bitLen > 0 {
				u = rng>>(64-bitLen) | 1<<(bitLen-1)
			}
			enc := binary.AppendUvarint(nil, u)
			b := binary.LittleEndian.AppendUint64(append([]byte(nil), enc...), rng|0x8080808080808080)
			n := len(enc)
			if got, size := Uvarint(b); got != u || size != n {
				t.Errorf("Uvarint(% x) = %d, %d; want %d, %d", enc, got, size, u, n)
			}
			if _, size := Uvarint(enc[:n-1]); size != 0 {
				t.Errorf("Uvarint of % x cut to %d bytes: size %d, want 0", enc, n-1, size)
			}
			if got, size := FastVarint(b, 0); (n <= 2 && (got != u || size != n)) || (n > 2 && size != 0) {
				t.Errorf("FastVarint(% x) = %d, %d", enc, got, size)
			}
			got, size := WordVarint(binary.LittleEndian.Uint64(b))
			if (n <= 8 && (got != u || size != n)) || (n > 8 && size != 0) {
				t.Errorf("WordVarint(% x) = %d, %d", enc, got, size)
			}
		}
	}
	for _, last := range []byte{0x02, 0x7F, 0x80, 0xFF} {
		b := append(bytes.Repeat([]byte{0xFF}, 9), last, 0x00)
		if _, size := Uvarint(b); size != -10 {
			t.Errorf("Uvarint with tenth byte %#x: size %d, want -10", last, size)
		}
	}
}

// TestLineScanner pins the line loop: an unterminated last line is a
// line at a clean end of input, but a line a reader failure cut is never
// parsed, and the failure is reported at its number.
func TestLineScanner(t *testing.T) {
	broke := errors.New("broke")
	lineOf := func(b []byte, n int) (string, bool, error) {
		if string(b) == "#" {
			return "", false, nil // a line without a record
		}
		return fmt.Sprintf("%d:%s", n, b), true, nil
	}
	for _, tc := range []struct {
		name  string
		r     io.Reader
		lines string
		err   string // "" for a clean end
	}{
		{"clean", strings.NewReader("a\r\n#\n\nc"), "1:a|3:|4:c", ""},
		{"cut mid-line", io.MultiReader(strings.NewReader("a\nb\nc c"), iotest.ErrReader(broke)), "1:a|2:b", "t: line 3: broke"},
		{"cut after a newline", io.MultiReader(strings.NewReader("a\n"), iotest.ErrReader(broke)), "1:a", "t: line 2: broke"},
		{"too long", strings.NewReader("a\n" + strings.Repeat("x", 64) + "\n"), "1:a", "t: line 2: bufio.Scanner: token too long"},
	} {
		ls := NewLineScanner(tc.r, "t", 16, 32, lineOf)
		var got []string
		for ls.Scan() {
			got = append(got, ls.Record())
		}
		if strings.Join(got, "|") != tc.lines {
			t.Errorf("%s: records %q, want %s", tc.name, got, tc.lines)
		}
		err := ls.Err()
		if (err == nil) != (tc.err == "") || err != nil && err.Error() != tc.err {
			t.Errorf("%s: Err() = %v, want %q", tc.name, err, tc.err)
		}
		if strings.HasSuffix(tc.err, "broke") && !errors.Is(err, broke) {
			t.Errorf("%s: errors.Is(Err(), cause) = false", tc.name)
		}
	}
}
