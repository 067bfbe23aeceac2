package codec

import (
	"io"
	"math/bits"
)

// Format is a binary record format as a Slab reads it: the language its
// errors name, its header (the magic bytes, then one version byte), the
// size of its longest record, and the texts of its header errors.
type Format struct {
	Lang      string
	Magic     string
	Version   byte
	MaxRecord int
	// Short is the message and cause of a header the input ends inside,
	// after have of its bytes.
	Short      func(have int) (msg string, cause error)
	BadMagic   func(magic []byte) string
	BadVersion func(version byte) string
}

// Slab is the read buffer of the two binary record formats, the dtb
// command trace (internal/trace) and the .dab access trace
// (internal/ctl). Records decode straight out of Buf[Pos:End], so after
// construction nothing allocates. Refill keeps at least one longest record
// buffered until the input ends, so a decoder can run a whole record on
// locals, and holds a reader failure back: the records buffered before
// it still decode, and only then is the failure the error, positioned at
// the first record it cut (Failure).
type Slab struct {
	Buf      []byte
	Pos, End int
	r        io.Reader
	f        *Format
	eof      bool  // the reader ended or failed: no more reads
	err      error // the reader's failure, pending until the buffer drains
}

// NewSlab returns a slab of size bytes reading records of format f from r.
func NewSlab(r io.Reader, size int, f *Format) Slab {
	return Slab{Buf: make([]byte, size), r: r, f: f}
}

// Refill makes sure a longest record is buffered, unless the input ended
// or failed first: a decoder calls it before each record.
func (s *Slab) Refill() {
	if s.End-s.Pos < s.f.MaxRecord && !s.eof {
		s.fill()
	}
}

// fill slides the unread bytes to the front of the buffer and reads until
// it holds a longest record or the input ends or fails. A failure stays
// pending (Failure): the records already buffered still decode.
func (s *Slab) fill() {
	if s.Pos > 0 {
		copy(s.Buf, s.Buf[s.Pos:s.End])
		s.End -= s.Pos
		s.Pos = 0
	}
	for s.End-s.Pos < s.f.MaxRecord && !s.eof {
		n, err := s.r.Read(s.Buf[s.End:])
		s.End += n
		if err != nil {
			s.eof = true
			if err != io.EOF {
				s.err = err
			}
			return
		}
	}
}

// Header fills the slab and consumes the format's header. A header that
// is cut short, names another format or another version is the format's
// error; one that a reader failure cut short is the failure.
func (s *Slab) Header() error {
	s.fill()
	f := s.f
	n := len(f.Magic) + 1
	if have := s.End - s.Pos; have < n {
		if s.err != nil {
			return s.Failure(0)
		}
		msg, cause := f.Short(have)
		return s.Error(0, msg, cause)
	}
	h := s.Buf[s.Pos : s.Pos+n]
	if string(h[:n-1]) != f.Magic {
		return s.Error(0, f.BadMagic(h[:n-1]), nil)
	}
	if h[n-1] != f.Version {
		return s.Error(0, f.BadVersion(h[n-1]), nil)
	}
	s.Pos += n
	return nil
}

// Error positions msg, caused by cause (nil for bad input), at the record
// after the decoded ones.
func (s *Slab) Error(decoded int64, msg string, cause error) *ParseError {
	return &ParseError{Lang: s.f.Lang, Line: int(decoded + 1), Msg: msg, Err: cause}
}

// Failure is the reader's failure as the error of the first record it
// cut, the one after the decoded ones; nil while reading and after a
// clean end of input.
func (s *Slab) Failure(decoded int64) error {
	if s.err == nil {
		return nil
	}
	return s.Error(decoded, s.err.Error(), s.err)
}

// FastVarint decodes a one- or two-byte varint from b at i (the caller
// guarantees two readable bytes from i); size is 0 for a longer encoding,
// which Uvarint decodes. It inlines into the binary decoders' fast paths,
// where such values are nearly every field: dtb's slot deltas, banks and
// rows below 8192, and .dab's slot deltas.
func FastVarint(b []byte, i int) (u uint64, size int) {
	c := b[i]
	if c < 0x80 {
		return uint64(c), 1
	}
	if d := b[i+1]; d < 0x80 {
		return uint64(c&0x7F) | uint64(d)<<7, 2
	}
	return 0, 0
}

// Uvarint decodes the varint at the start of b and returns it with its
// size in bytes: 0 when it runs into the end of b, and minus the bytes
// read when it overflows 64 bits, which a tenth byte above 1 does. It
// stays out of line so that the fast paths' loops carry only
// FastVarint's two inlined cases.
//
//go:noinline
func Uvarint(b []byte) (u uint64, size int) {
	var shift uint
	for k, c := range b {
		if k == 9 && c > 1 {
			return 0, -(k + 1)
		}
		u |= uint64(c&0x7F) << shift
		if c < 0x80 {
			return u, k + 1
		}
		shift += 7
	}
	return 0, 0
}

// WordVarint decodes the varint at the start of w, the next eight input
// bytes read little-endian, with no branch on its length: its value and
// its size in bytes, 0 when it is longer than eight bytes. The .dab
// decoder reads its address deltas with it, four bytes long in the common
// case; dtb's fields are one or two bytes, which FastVarint's predicted
// branches decode faster.
func WordVarint(w uint64) (u uint64, size int) {
	stop := ^w & 0x8080808080808080 // the bytes that end a varint
	if stop == 0 {
		return 0, 0
	}
	w &= stop ^ (stop - 1) // the bytes up to and including the first one
	// Pack the 7-bit groups: pairs of bytes, then pairs of pairs, then
	// the two halves.
	w = w&0x007F007F007F007F | w>>1&0x3F803F803F803F80
	w = w&0x00003FFF00003FFF | w>>2&0x0FFFC0000FFFC000
	w = w&0x000000000FFFFFFF | w>>4&0x00FFFFFFF0000000
	return w, bits.TrailingZeros64(stop)>>3 + 1
}
