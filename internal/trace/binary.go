package trace

// Binary trace encoding ("dtb"): a compact, streaming-friendly rendering
// of command traces built for ingest at simulator rates. The text format
// (scanner.go) spends ~20 bytes and a tokenizing scan per command; dtb
// spends 3-6 bytes and a handful of branchless varint reads, which is
// what closes the gap between parsing and the zero-alloc Issue hot path
// (see DESIGN §11 and BenchmarkTraceReplay8ChBinary).
//
// Layout:
//
//	header   5 bytes: 0xD7 'D' 'T' 'B' <version=0x01>
//	command  1 flag/op byte, then 1-3 zigzag varints:
//	         bits 0-3  op (0..numTraceOps-1: nop, act, pre, rd, wrt,
//	                   ref, pde, pdx, sre, srx — the desc.Op /
//	                   power-state numbering)
//	         bit 4     a bank varint follows (omitted when bank == 0)
//	         bit 5     a row varint follows (omitted when row == 0)
//	         bits 6-7  reserved, must be zero
//	         varint    slot delta from the previous command's slot
//	                   (zigzag-encoded; the first command's delta is its
//	                   absolute slot)
//	         [varint]  bank, [varint] row (zigzag-encoded)
//
// Every command stream the text scanner accepts is representable: slots
// are non-negative but need not be monotone (the simulator, not the
// parser, enforces ordering), and bank/row may be negative on the way to
// a bank-range rejection, hence zigzag rather than unsigned varints. The
// leading 0xD7 byte cannot start a well-formed text trace line, so the
// two encodings are sniffable from the first byte (see NewSource).

import (
	"bufio"
	"fmt"
	"io"

	"drampower/internal/codec"
	"drampower/internal/desc"
)

// dtbMagic is the file header: three printable identifying bytes behind a
// guard byte that is invalid at the start of trace text (and of UTF-8).
var dtbMagic = [4]byte{0xD7, 'D', 'T', 'B'}

// dtbVersion is the current encoding version, bumped on incompatible
// layout changes.
const dtbVersion = 1

// binHeaderLen is the full header size: magic plus version byte.
const binHeaderLen = len(dtbMagic) + 1

// maxBinCmdBytes bounds one encoded command: the flag/op byte plus three
// 10-byte varints.
const maxBinCmdBytes = 1 + 3*10

// binBufSize is the BinaryScanner's read buffer. Commands average ~4
// bytes, so one refill covers thousands of commands.
const binBufSize = 32 << 10

const (
	flagBank     = 0x10
	flagRow      = 0x20
	flagReserved = 0xC0
	opMask       = 0x0F
)

// dtbFormat is dtb as the codec's slab reads it.
var dtbFormat = codec.Format{
	Lang: "trace", Magic: string(dtbMagic[:]), Version: dtbVersion, MaxRecord: maxBinCmdBytes,
	Short: func(have int) (string, error) {
		return fmt.Sprintf("truncated dtb header (%d bytes, want %d: not a binary trace?)", have, binHeaderLen), nil
	},
	BadMagic: func(magic []byte) string { return fmt.Sprintf("bad magic %q (not a dtb binary trace)", magic) },
	BadVersion: func(v byte) string {
		return fmt.Sprintf("unsupported dtb version %d (this reader speaks %d)", v, dtbVersion)
	},
}

// BinaryScanner streams commands from a dtb-encoded trace. It mirrors the
// text Scanner's interface (Scan/Command/Err) and allocation discipline:
// after construction the accept path performs no heap allocations —
// commands decode straight out of the fixed buffer of a codec.Slab.
// Errors are *ParseError like the text scanner's; for binary input Line
// carries the 1-based ordinal of the offending command and Col is zero. A
// reader failure is reported after the complete commands buffered before
// it, at the ordinal of the first command it cut.
type BinaryScanner struct {
	s       codec.Slab
	started bool // header consumed
	prev    int64
	n       int64 // commands decoded so far
	cmd     Command
	err     error
}

// NewBinaryScanner returns a BinaryScanner reading a dtb trace from r.
// The header is validated on the first Scan.
func NewBinaryScanner(r io.Reader) *BinaryScanner {
	return &BinaryScanner{s: codec.NewSlab(r, binBufSize, &dtbFormat)}
}

// fail records a positioned decode error at the current command ordinal.
func (sc *BinaryScanner) fail(format string, args ...any) bool {
	sc.err = sc.s.Error(sc.n, fmt.Sprintf(format, args...), nil)
	return false
}

// readHeader consumes and validates the magic + version header.
func (sc *BinaryScanner) readHeader() bool {
	sc.err = sc.s.Header()
	sc.started = sc.err == nil
	return sc.started
}

// Scan advances to the next command. It returns false at end of input or
// on the first error; Err disambiguates the two.
func (sc *BinaryScanner) Scan() bool {
	if sc.err != nil {
		return false
	}
	if !sc.started && !sc.readHeader() {
		return false
	}
	sc.s.Refill()
	return sc.decode()
}

// decode decodes one command from the buffered bytes (the caller has
// ensured the buffer holds a full command or the input's final bytes).
// Once the buffered commands are decoded, a pending reader failure is
// the error.
func (sc *BinaryScanner) decode() bool {
	b, i, end := sc.s.Buf, sc.s.Pos, sc.s.End
	if i == end {
		sc.err = sc.s.Failure(sc.n) // nil at a clean end of input
		return false
	}
	h := b[i]
	i++
	if h&flagReserved != 0 {
		return sc.fail("reserved flag bits 0x%02x set", h&flagReserved)
	}
	op := desc.Op(h & opMask)
	if int(op) >= numTraceOps {
		return sc.fail("op %d out of range (want 0..%d)", op, numTraceOps-1)
	}
	u, sz := codec.Uvarint(b[i:end])
	if sz <= 0 {
		return sc.failVarint(sz, "slot delta")
	}
	i += sz
	delta := codec.Unzigzag(u)
	slot := sc.prev + delta
	if (delta > 0 && slot < sc.prev) || (delta < 0 && slot > sc.prev) {
		return sc.fail("slot overflow (delta %d from slot %d)", delta, sc.prev)
	}
	if slot < 0 {
		return sc.fail("negative slot %d", slot)
	}
	var bank, row int64
	if h&flagBank != 0 {
		if u, sz = codec.Uvarint(b[i:end]); sz <= 0 {
			return sc.failVarint(sz, "bank")
		}
		i += sz
		bank = codec.Unzigzag(u)
	}
	if h&flagRow != 0 {
		if u, sz = codec.Uvarint(b[i:end]); sz <= 0 {
			return sc.failVarint(sz, "row")
		}
		i += sz
		row = codec.Unzigzag(u)
	}
	sc.s.Pos = i
	sc.prev = slot
	sc.n++
	sc.cmd = Command{Slot: slot, Op: op, Bank: int(bank), Row: int(row)}
	return true
}

// failVarint reports the named field's varint that codec.Uvarint could not
// decode (size 0: it ran into the end of the buffered bytes; negative: it
// overflows). One cut short after a reader failure was cut by it, and the
// failure is the error.
func (sc *BinaryScanner) failVarint(size int, field string) bool {
	if size == 0 {
		if sc.err = sc.s.Failure(sc.n); sc.err != nil {
			return false
		}
	}
	return sc.fail("truncated or overlong %s", field)
}

// ScanBatch decodes up to len(dst) commands into dst and returns how many
// it produced. A short count means the input ended or errored (check Err)
// — it never means "try again". This is the replay pipeline's fast path:
// while a whole command is guaranteed buffered, it decodes in a tight
// loop on locals (so a varint, at most 10 bytes, ends before the
// buffered bytes do); buffer boundaries, truncation and malformed input
// fall back to Scan, which re-decodes and positions the error.
func (sc *BinaryScanner) ScanBatch(dst []Command) int {
	if sc.err != nil || (!sc.started && !sc.readHeader()) {
		return 0
	}
	n := 0
	for n < len(dst) {
		sc.s.Refill()
		b := sc.s.Buf
		i, end, prev := sc.s.Pos, sc.s.End, sc.prev
		first := n
		for n < len(dst) && end-i >= maxBinCmdBytes {
			h := b[i]
			op := desc.Op(h & opMask)
			if h&flagReserved != 0 || int(op) >= numTraceOps {
				break // Scan reports the error
			}
			u, sz := codec.FastVarint(b, i+1)
			if sz == 0 {
				if u, sz = codec.Uvarint(b[i+1:]); sz <= 0 {
					break
				}
			}
			j := i + 1 + sz
			// prev >= 0, so the sum can only wrap on a positive delta,
			// and wrapping lands below zero: this one test catches both
			// an overflow and a negative slot, which Scan tells apart.
			slot := prev + codec.Unzigzag(u)
			if slot < 0 {
				break
			}
			var bank, row int64
			if h&flagBank != 0 {
				if u, sz = codec.FastVarint(b, j); sz == 0 {
					if u, sz = codec.Uvarint(b[j:]); sz <= 0 {
						break
					}
				}
				j += sz
				bank = codec.Unzigzag(u)
			}
			if h&flagRow != 0 {
				if u, sz = codec.FastVarint(b, j); sz == 0 {
					if u, sz = codec.Uvarint(b[j:]); sz <= 0 {
						break
					}
				}
				j += sz
				row = codec.Unzigzag(u)
			}
			dst[n] = Command{Slot: slot, Op: op, Bank: int(bank), Row: int(row)}
			n++
			i, prev = j, slot
		}
		sc.s.Pos, sc.prev, sc.n = i, prev, sc.n+int64(n-first)
		if n == len(dst) {
			return n
		}
		// Near the buffer end, at end of input, or on malformed bytes:
		// one command through the general path, which refills or errors.
		if !sc.Scan() {
			return n
		}
		dst[n] = sc.cmd
		n++
	}
	return n
}

// Command returns the command of the last successful Scan.
func (sc *BinaryScanner) Command() Command { return sc.cmd }

// Err returns the first error encountered (a *ParseError), or nil after a
// clean end of input.
func (sc *BinaryScanner) Err() error { return sc.err }

// Commands returns the number of commands decoded so far.
func (sc *BinaryScanner) Commands() int64 { return sc.n }

// BinaryWriter encodes commands into the dtb binary format, buffered.
// The header is written on creation, so flushing a fresh writer produces
// a valid empty trace. Call Flush when done; the writer does not own or
// close the underlying writer.
type BinaryWriter struct {
	w    *bufio.Writer
	prev int64
	err  error
	buf  [maxBinCmdBytes]byte
}

// NewBinaryWriter returns a BinaryWriter emitting a dtb stream to w.
func NewBinaryWriter(w io.Writer) *BinaryWriter {
	bw := &BinaryWriter{w: bufio.NewWriter(w)}
	_, bw.err = bw.w.Write(append(dtbMagic[:len(dtbMagic):len(dtbMagic)], dtbVersion))
	return bw
}

// WriteCommand appends one command to the stream. Commands with negative
// slots are rejected (they could not round-trip: the scanner refuses
// them, mirroring the text parser).
func (bw *BinaryWriter) WriteCommand(c Command) error {
	if bw.err != nil {
		return bw.err
	}
	if c.Slot < 0 {
		bw.err = fmt.Errorf("trace: negative slot %d not encodable", c.Slot)
		return bw.err
	}
	h := byte(c.Op) & opMask
	if int(c.Op) >= numTraceOps || c.Op < 0 {
		bw.err = fmt.Errorf("trace: op %d not encodable (want 0..%d)", c.Op, numTraceOps-1)
		return bw.err
	}
	if c.Bank != 0 {
		h |= flagBank
	}
	if c.Row != 0 {
		h |= flagRow
	}
	buf := append(bw.buf[:0], h)
	buf = codec.AppendVarint(buf, c.Slot-bw.prev)
	if c.Bank != 0 {
		buf = codec.AppendVarint(buf, int64(c.Bank))
	}
	if c.Row != 0 {
		buf = codec.AppendVarint(buf, int64(c.Row))
	}
	if _, err := bw.w.Write(buf); err != nil {
		bw.err = err
		return err
	}
	bw.prev = c.Slot
	return nil
}

// Flush drains the buffer to the underlying writer and reports the first
// error of the stream.
func (bw *BinaryWriter) Flush() error {
	if bw.err != nil {
		return bw.err
	}
	return bw.w.Flush()
}

// WriteBinaryTrace renders commands in the dtb binary format. The output
// round-trips through NewBinaryScanner, and converting a text trace
// produces the identical Command stream (pinned by the round-trip
// property test and FuzzBinaryScanner).
func WriteBinaryTrace(w io.Writer, cmds []Command) error {
	return WriteAll(NewBinaryWriter(w), cmds)
}

// Source is a stream of commands: the common face of the text Scanner and
// the BinaryScanner, and what the replay pipeline consumes. Scan advances
// (false at end of input or on error), Command returns the last command,
// Err reports the first error (nil after a clean end).
type Source interface {
	Scan() bool
	Command() Command
	Err() error
}

// batchSource is the optional bulk-decode fast path a Source may offer;
// the replay pipeline uses it to decode whole rounds with one call.
type batchSource interface {
	ScanBatch(dst []Command) int
}

// ScanBatch decodes up to len(dst) commands into dst, the text scanner's
// counterpart of BinaryScanner.ScanBatch (a short count means end of
// input or error, never "try again").
func (sc *Scanner) ScanBatch(dst []Command) int {
	n := 0
	for n < len(dst) && sc.Scan() {
		dst[n] = sc.Record()
		n++
	}
	return n
}

// NewSource returns a Source for either trace encoding, sniffing the
// format from the first byte: 0xD7 (the dtb magic's guard byte, which
// cannot start a well-formed text line) selects the binary scanner,
// anything else the text one. An empty input yields an empty text trace.
func NewSource(r io.Reader) Source {
	first, rest := codec.Sniff(r)
	if first == dtbMagic[0] {
		return NewBinaryScanner(rest)
	}
	return NewScanner(rest)
}
