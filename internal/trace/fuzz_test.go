package trace

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"testing"

	"drampower/internal/core"
	"drampower/internal/desc"
)

// fuzzCap bounds the commands one fuzz input decodes.
const fuzzCap = 4096

// scanCapped decodes src through Scan, stopping after fuzzCap commands.
func scanCapped(src Source) []Command {
	var cmds []Command
	for len(cmds) < fuzzCap && src.Scan() {
		cmds = append(cmds, src.Command())
	}
	return cmds
}

// checkScanBatch decodes the same input a second time through ScanBatch,
// at a batch size of 1-64 taken from the input's last byte, and requires
// the commands and the error text that Scan produced. A Scan pass cut
// short at fuzzCap is compared on that prefix only.
func checkScanBatch(t *testing.T, src Source, data []byte, want []Command, wantErr error) {
	t.Helper()
	batch := 1
	if len(data) > 0 {
		batch += int(data[len(data)-1]) % 64
	}
	capped := len(want) == fuzzCap
	dst := make([]Command, batch)
	var got []Command
	for !capped || len(got) < len(want) {
		n := src.(batchSource).ScanBatch(dst)
		got = append(got, dst[:n]...)
		if n < batch {
			break
		}
	}
	if capped && len(got) > len(want) {
		got = got[:len(want)]
	}
	if len(got) != len(want) {
		t.Fatalf("batch %d: ScanBatch decoded %d commands, Scan %d", batch, len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("batch %d: ScanBatch command %d = %+v, Scan %+v", batch, i, got[i], want[i])
		}
	}
	if capped {
		return
	}
	if fmt.Sprint(src.Err()) != fmt.Sprint(wantErr) {
		t.Fatalf("batch %d: ScanBatch error %v, Scan %v", batch, src.Err(), wantErr)
	}
}

// FuzzTraceScanner drives the streaming trace scanner with mutated
// inputs, seeded from generated workloads and edge-case lines. The
// scanner must never panic, must only fail with positioned *ParseError,
// ScanBatch must decode the same commands and error as Scan, and every
// accepted command must survive the AppendCommand round-trip (the
// canonical rendering reparses to the same command).
func FuzzTraceScanner(f *testing.F) {
	if m, err := core.Build(desc.Sample1GbDDR3()); err == nil {
		var b bytes.Buffer
		WriteTrace(&b, Streaming(m, 50, 0.7, 1))
		f.Add(b.Bytes())
		b.Reset()
		WriteTrace(&b, RandomClosedPage(m, 30, 0.5, 2))
		f.Add(b.Bytes())
	}
	f.Add([]byte("0 act 2 17\n11 rd 2 17\n28 pre 2 17\n100 ref\n"))
	f.Add([]byte("# comment\n\n  \t\n5 ACTIVATE 1 2 # trailing\n"))
	f.Add([]byte("9223372036854775807 nop\n"))
	f.Add([]byte("-1 act 0 0\n"))
	f.Add([]byte("0 wr 0\n0 write 0 0 0\n"))
	f.Add([]byte("0 ref\n200 pde\n800 pdx\n900 sre\n12000 SRX\n"))
	f.Add([]byte("0"))

	f.Fuzz(func(t *testing.T, data []byte) {
		sc := NewScanner(bytes.NewReader(data))
		cmds := scanCapped(sc)
		checkScanBatch(t, NewScanner(bytes.NewReader(data)), data, cmds, sc.Err())
		if err := sc.Err(); err != nil {
			var pe *ParseError
			if !errors.As(err, &pe) {
				t.Fatalf("non-positioned scanner error %T: %v", err, err)
			}
			if pe.Line < 1 {
				t.Fatalf("scanner error with line %d: %v", pe.Line, pe)
			}
		}
		if len(cmds) == 0 {
			return
		}
		// Canonical round-trip: re-render and re-scan.
		var buf []byte
		for _, c := range cmds {
			buf = AppendCommand(buf, c)
		}
		rt := NewScanner(bytes.NewReader(buf))
		for i := 0; rt.Scan(); i++ {
			if got := rt.Command(); got != cmds[i] {
				t.Fatalf("round-trip command %d = %+v, want %+v", i, got, cmds[i])
			}
		}
		if err := rt.Err(); err != nil {
			t.Fatalf("canonical rendering failed to rescan: %v", err)
		}
	})
}

// convertTextTrace renders a text trace's commands in the dtb binary
// encoding, for seeding the binary fuzz corpus from the testdata traces.
func convertTextTrace(f *testing.F, text []byte) []byte {
	f.Helper()
	sc := NewScanner(bytes.NewReader(text))
	var cmds []Command
	for sc.Scan() {
		cmds = append(cmds, sc.Command())
	}
	if err := sc.Err(); err != nil {
		f.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteBinaryTrace(&buf, cmds); err != nil {
		f.Fatal(err)
	}
	return buf.Bytes()
}

// FuzzBinaryScanner drives the dtb binary scanner with mutated inputs,
// seeded from converted testdata traces, generated workloads (including
// the power-state commands) and handcrafted edge cases. The scanner must
// never panic, must only fail with positioned *ParseError (ordinal >= 1),
// ScanBatch's fast path must decode the same commands and error as Scan,
// and every accepted command stream must survive the BinaryWriter
// round-trip bit-identically — the binary counterpart of the text
// scanner's canonical-rendering property.
func FuzzBinaryScanner(f *testing.F) {
	for _, name := range []string{"testdata/golden_single_trace.txt", "testdata/golden_multi_trace.txt"} {
		if text, err := os.ReadFile(name); err == nil {
			f.Add(convertTextTrace(f, text))
		}
	}
	if m, err := core.Build(desc.Sample1GbDDR3()); err == nil {
		var b bytes.Buffer
		WriteBinaryTrace(&b, Streaming(m, 50, 0.7, 1))
		f.Add(append([]byte(nil), b.Bytes()...))
		b.Reset()
		WriteBinaryTrace(&b, WithPowerDown(m, RefreshOnly(m, 5), 1))
		f.Add(append([]byte(nil), b.Bytes()...))
	}
	header := []byte{0xD7, 'D', 'T', 'B', 1}
	f.Add(append([]byte(nil), header...))                                                                                 // empty trace
	f.Add(append(append([]byte(nil), header...), 0x01, 0x00))                                                             // one act at slot 0
	f.Add(append(append([]byte(nil), header...), 0x31, 0x02, 0x04, 0x22))                                                 // act 2 17
	f.Add(append(append([]byte(nil), header...), 0xC1, 0x00))                                                             // reserved flags
	f.Add(append(append([]byte(nil), header...), 0x00, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x00)) // overlong varint
	f.Add([]byte{0xD7, 'D', 'T', 'B', 9})                                                                                 // bad version
	f.Add([]byte{0xD7, 'D'})                                                                                              // truncated header
	f.Add([]byte("0 act 0 1\n"))                                                                                          // text handed to the binary scanner

	f.Fuzz(func(t *testing.T, data []byte) {
		sc := NewBinaryScanner(bytes.NewReader(data))
		cmds := scanCapped(sc)
		checkScanBatch(t, NewBinaryScanner(bytes.NewReader(data)), data, cmds, sc.Err())
		if err := sc.Err(); err != nil {
			var pe *ParseError
			if !errors.As(err, &pe) {
				t.Fatalf("non-positioned scanner error %T: %v", err, err)
			}
			if pe.Line < 1 {
				t.Fatalf("scanner error with command ordinal %d: %v", pe.Line, pe)
			}
		}
		if len(cmds) == 0 {
			return
		}
		// Round-trip: re-encode and re-decode bit-identically.
		var buf bytes.Buffer
		if err := WriteBinaryTrace(&buf, cmds); err != nil {
			t.Fatalf("accepted commands failed to re-encode: %v", err)
		}
		rt := NewBinaryScanner(bytes.NewReader(buf.Bytes()))
		for i := 0; rt.Scan(); i++ {
			if got := rt.Command(); got != cmds[i] {
				t.Fatalf("round-trip command %d = %+v, want %+v", i, got, cmds[i])
			}
		}
		if err := rt.Err(); err != nil {
			t.Fatalf("re-encoded trace failed to rescan: %v", err)
		}
	})
}
