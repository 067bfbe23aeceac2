package ctl

// The binary half of the access-trace format (.dab), mirroring the dtb
// command-trace encoding in internal/trace/binary.go: a 5-byte header
// then one variable-length record per request.
//
//	magic   0xDA 'D' 'A' 'B' 0x01
//	record  flags byte ++ zigzag-varint slot delta ++ zigzag-varint addr delta
//
// The flags byte carries the operation in bit 0 (0 = read, 1 = write);
// bits 1..7 are reserved and must be zero. Slot and address are both
// delta-encoded against the previous record (zigzag, so regressions and
// strides in either direction stay short); the first record's deltas are
// against zero. The 0xDA first byte cannot begin a text access trace
// (which starts with whitespace, '#' or a digit) or a dtb stream (0xD7),
// so NewAccessSource sniffs the format from one byte.

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"

	"drampower/internal/codec"
)

// accessMagic is the .dab header: sentinel byte, format name, version.
var accessMagic = [5]byte{0xDA, 'D', 'A', 'B', 0x01}

// AccessBinaryMagicByte is the first byte of every .dab stream, used for
// format sniffing.
const AccessBinaryMagicByte = 0xDA

// accessFlagWrite is bit 0 of the record flags byte.
const accessFlagWrite = 0x01

// accessFlagReserved masks the bits that must be zero in this version.
const accessFlagReserved = ^byte(accessFlagWrite)

// BinaryWriter encodes requests into the .dab format. The header is
// written on creation, so flushing a fresh writer produces a valid empty
// trace.
type BinaryWriter struct {
	w        *bufio.Writer
	buf      [maxAccessRecordBytes]byte
	lastSlot int64
	lastAddr int64
	err      error
}

// NewBinaryWriter returns a BinaryWriter emitting to w.
func NewBinaryWriter(w io.Writer) *BinaryWriter {
	bw := &BinaryWriter{w: bufio.NewWriter(w)}
	_, bw.err = bw.w.Write(accessMagic[:])
	return bw
}

// Write encodes one request. Requests may arrive in any slot/address
// order — deltas are signed — though the scheduler itself wants
// non-decreasing slots.
func (bw *BinaryWriter) Write(r Request) error {
	if bw.err != nil {
		return bw.err
	}
	if r.Slot < 0 || r.Addr < 0 {
		bw.err = fmt.Errorf("ctl: negative slot or address in request %v", r)
		return bw.err
	}
	flags := byte(0)
	if r.Write {
		flags = accessFlagWrite
	}
	b := append(bw.buf[:0], flags)
	b = codec.AppendVarint(b, r.Slot-bw.lastSlot)
	b = codec.AppendVarint(b, r.Addr-bw.lastAddr)
	bw.lastSlot, bw.lastAddr = r.Slot, r.Addr
	if _, err := bw.w.Write(b); err != nil {
		bw.err = err
		return err
	}
	return nil
}

// Flush writes any buffered output to the underlying writer.
func (bw *BinaryWriter) Flush() error {
	if bw.err == nil {
		bw.err = bw.w.Flush()
	}
	return bw.err
}

// WriteBinaryAccessTrace encodes requests as a complete .dab stream.
func WriteBinaryAccessTrace(w io.Writer, reqs []Request) error {
	bw := NewBinaryWriter(w)
	for i := range reqs {
		if err := bw.Write(reqs[i]); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// maxAccessRecordBytes bounds one encoded request: the flags byte and
// two 10-byte varints.
const maxAccessRecordBytes = 1 + 2*10

// accessBufSize is the BinaryScanner's read buffer. Requests average ~6
// bytes, so one refill covers hundreds of requests.
const accessBufSize = 4 << 10

// dabFormat is .dab as the codec's slab reads it.
var dabFormat = codec.Format{
	Lang: "access", Magic: string(accessMagic[:4]), Version: accessMagic[4], MaxRecord: maxAccessRecordBytes,
	Short:      func(int) (string, error) { return "truncated access-trace header", io.ErrUnexpectedEOF },
	BadMagic:   func(magic []byte) string { return fmt.Sprintf("bad access-trace magic % x", magic) },
	BadVersion: func(v byte) string { return fmt.Sprintf("unsupported access-trace version %d", v) },
}

// BinaryScanner decodes a .dab stream out of the fixed buffer of a
// codec.Slab, allocating nothing after construction. Errors are
// positioned by request ordinal (reported in ParseError.Line, Col zero),
// matching the text scanner's contract closely enough that callers
// handle both uniformly. A reader failure is reported after the complete
// requests buffered before it, at the ordinal of the first request it
// cut.
type BinaryScanner struct {
	s       codec.Slab
	req     Request // the last request, which the next one's deltas build on
	n       int64   // requests decoded so far
	started bool
	err     error
}

// NewBinaryScanner returns a BinaryScanner reading a .dab stream from r.
// The header is validated on the first Scan.
func NewBinaryScanner(r io.Reader) *BinaryScanner {
	return &BinaryScanner{s: codec.NewSlab(r, accessBufSize, &dabFormat)}
}

func (bs *BinaryScanner) fail(msg string, err error) bool {
	bs.err = bs.s.Error(bs.n, msg, err)
	return false
}

// Scan advances to the next request; false at end of stream or error.
// While a longest record is buffered, the slot delta is read with
// codec.FastVarint and the address delta with codec.WordVarint, inlined
// and without a bound check per byte; a longer delta, and any delta at
// the buffer's end, is read with the checked codec.Uvarint.
func (bs *BinaryScanner) Scan() bool {
	if bs.err != nil {
		return false
	}
	if !bs.started {
		bs.started = true
		if bs.err = bs.s.Header(); bs.err != nil {
			return false
		}
	}
	s := &bs.s
	s.Refill()
	b, i, end := s.Buf, s.Pos, s.End
	if i == end {
		bs.err = s.Failure(bs.n) // nil at a clean end of stream
		return false
	}
	flags := b[i]
	if flags&accessFlagReserved != 0 {
		return bs.fail(fmt.Sprintf("reserved flag bits %#02x set", flags&accessFlagReserved), nil)
	}
	fast := end-i >= maxAccessRecordBytes
	i++
	var ds, da uint64
	var n1, n2 int
	if fast {
		ds, n1 = codec.FastVarint(b, i)
	}
	if n1 == 0 {
		if ds, n1 = codec.Uvarint(b[i:end]); n1 <= 0 {
			return bs.failVarint(n1)
		}
	}
	i += n1
	if fast {
		da, n2 = codec.WordVarint(binary.LittleEndian.Uint64(b[i:]))
	}
	if n2 == 0 {
		if da, n2 = codec.Uvarint(b[i:end]); n2 <= 0 {
			return bs.failVarint(n2)
		}
	}
	i += n2
	slot := bs.req.Slot + codec.Unzigzag(ds)
	addr := bs.req.Addr + codec.Unzigzag(da)
	if slot < 0 {
		return bs.fail(fmt.Sprintf("negative slot %d", slot), nil)
	}
	if addr < 0 {
		return bs.fail(fmt.Sprintf("negative address %d", addr), nil)
	}
	s.Pos = i
	bs.req = Request{Slot: slot, Write: flags&accessFlagWrite != 0, Addr: addr}
	bs.n++
	return true
}

// failVarint reports a varint that codec.Uvarint could not decode (size
// 0: it ran into the end of the buffered bytes; negative: it overflows).
// One cut short after a reader failure was cut by it, and the failure is
// the error.
func (bs *BinaryScanner) failVarint(size int) bool {
	if size < 0 {
		return bs.fail("varint overflows 64 bits", nil)
	}
	if bs.err = bs.s.Failure(bs.n); bs.err == nil {
		return bs.fail("truncated request record", io.ErrUnexpectedEOF)
	}
	return false
}

// Request returns the request of the last successful Scan.
func (bs *BinaryScanner) Request() Request { return bs.req }

// Err returns the first error encountered (a *ParseError), or nil after
// a clean end of stream.
func (bs *BinaryScanner) Err() error { return bs.err }

// NewAccessSource sniffs the access-trace format from the first byte of
// r and returns the matching scanner: 0xDA selects the .dab binary
// decoder, anything else the text scanner. An empty stream is a valid
// empty text trace.
func NewAccessSource(r io.Reader) Source {
	first, rest := codec.Sniff(r)
	if first == AccessBinaryMagicByte {
		return NewBinaryScanner(rest)
	}
	return NewScanner(rest)
}
