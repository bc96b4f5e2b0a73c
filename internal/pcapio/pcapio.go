// Package pcapio reads and writes the classic libpcap capture file format,
// the format the paper's ccTLD operators used for collection ("we include
// only the authoritative servers that support pcap collection"). Both the
// microsecond (0xA1B2C3D4) and nanosecond (0xA1B23C4D) magic variants are
// supported, in either byte order, for Ethernet (DLT_EN10MB) link type.
package pcapio

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"time"
)

// Magic numbers of the classic pcap format.
const (
	MagicMicroseconds uint32 = 0xA1B2C3D4
	MagicNanoseconds  uint32 = 0xA1B23C4D
)

// LinkTypeEthernet is DLT_EN10MB.
const LinkTypeEthernet uint32 = 1

// DefaultSnapLen is the snapshot length written in new files.
const DefaultSnapLen uint32 = 65535

// Errors of the pcap codec.
var (
	ErrBadMagic    = errors.New("pcapio: unrecognized magic number")
	ErrBadLinkType = errors.New("pcapio: unsupported link type")
	ErrShortRecord = errors.New("pcapio: short packet record")
	ErrSnapLen     = errors.New("pcapio: capture length exceeds snap length")

	// ErrTruncatedRecord reports a torn final record: the stream ended in
	// the middle of a record header or body. This is the normal state of a
	// file a live capture process is still appending to, so callers must
	// be able to tell it apart from real corruption — match it with
	// errors.Is and recover the resume point from TruncatedError.Offset.
	ErrTruncatedRecord = errors.New("pcapio: truncated final record")
)

// TruncatedError is the concrete error behind ErrTruncatedRecord. Offset
// is the number of stream bytes up to and including the last complete
// record (file header plus whole records/blocks): a tailing reader can
// wait for the file to grow and resume decoding from exactly there.
type TruncatedError struct {
	Offset int64
}

func (e *TruncatedError) Error() string {
	return fmt.Sprintf("pcapio: truncated final record (last complete record ends at byte %d)", e.Offset)
}

// Is makes errors.Is(err, ErrTruncatedRecord) match.
func (e *TruncatedError) Is(target error) bool { return target == ErrTruncatedRecord }

const fileHeaderLen = 24
const recordHeaderLen = 16

// Packet is one captured packet record.
type Packet struct {
	// Timestamp of capture.
	Timestamp time.Time
	// Data is the captured bytes (possibly truncated to snaplen).
	Data []byte
	// OrigLen is the original on-the-wire length.
	OrigLen int
}

// Writer emits a pcap stream. It is not safe for concurrent use.
type Writer struct {
	w         *bufio.Writer
	nanos     bool
	snapLen   uint32
	headerOut bool
	scratch   [recordHeaderLen]byte
}

// WriterOption configures a Writer.
type WriterOption func(*Writer)

// WithNanosecondResolution makes the writer emit the nanosecond magic.
func WithNanosecondResolution() WriterOption {
	return func(w *Writer) { w.nanos = true }
}

// NewWriter wraps w. The file header is written lazily on the first packet
// (or by Flush).
func NewWriter(w io.Writer, opts ...WriterOption) *Writer {
	pw := &Writer{w: bufio.NewWriterSize(w, 1<<16), snapLen: DefaultSnapLen}
	for _, o := range opts {
		o(pw)
	}
	return pw
}

func (w *Writer) writeHeader() error {
	var hdr [fileHeaderLen]byte
	magic := MagicMicroseconds
	if w.nanos {
		magic = MagicNanoseconds
	}
	binary.LittleEndian.PutUint32(hdr[0:], magic)
	binary.LittleEndian.PutUint16(hdr[4:], 2) // version major
	binary.LittleEndian.PutUint16(hdr[6:], 4) // version minor
	// thiszone=0, sigfigs=0
	binary.LittleEndian.PutUint32(hdr[16:], w.snapLen)
	binary.LittleEndian.PutUint32(hdr[20:], LinkTypeEthernet)
	w.headerOut = true
	_, err := w.w.Write(hdr[:])
	return err
}

// WritePacket appends one record with the given timestamp and full frame
// bytes (OrigLen == len(data); truncation to snaplen is applied).
func (w *Writer) WritePacket(ts time.Time, data []byte) error {
	if !w.headerOut {
		if err := w.writeHeader(); err != nil {
			return err
		}
	}
	capLen := len(data)
	if uint32(capLen) > w.snapLen {
		capLen = int(w.snapLen)
	}
	sec := ts.Unix()
	var sub int64
	if w.nanos {
		sub = int64(ts.Nanosecond())
	} else {
		sub = int64(ts.Nanosecond() / 1000)
	}
	binary.LittleEndian.PutUint32(w.scratch[0:], uint32(sec))
	binary.LittleEndian.PutUint32(w.scratch[4:], uint32(sub))
	binary.LittleEndian.PutUint32(w.scratch[8:], uint32(capLen))
	binary.LittleEndian.PutUint32(w.scratch[12:], uint32(len(data)))
	if _, err := w.w.Write(w.scratch[:]); err != nil {
		return err
	}
	_, err := w.w.Write(data[:capLen])
	return err
}

// AppendRecord appends one packet record — header and payload coalesced —
// to dst, encoded exactly as WritePacket would emit it (same resolution
// and snaplen truncation). Use with WriteBatch to build large contiguous
// batches that reach the file in a single write.
func (w *Writer) AppendRecord(dst []byte, ts time.Time, data []byte) []byte {
	capLen := len(data)
	if uint32(capLen) > w.snapLen {
		capLen = int(w.snapLen)
	}
	var sub int64
	if w.nanos {
		sub = int64(ts.Nanosecond())
	} else {
		sub = int64(ts.Nanosecond() / 1000)
	}
	dst = binary.LittleEndian.AppendUint32(dst, uint32(ts.Unix()))
	dst = binary.LittleEndian.AppendUint32(dst, uint32(sub))
	dst = binary.LittleEndian.AppendUint32(dst, uint32(capLen))
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(data)))
	return append(dst, data[:capLen]...)
}

// WriteBatch writes records pre-encoded by AppendRecord. The file header is
// written first if needed; the batch itself reaches the underlying writer
// in one Write when it exceeds the buffer size.
func (w *Writer) WriteBatch(batch []byte) error {
	if !w.headerOut {
		if err := w.writeHeader(); err != nil {
			return err
		}
	}
	_, err := w.w.Write(batch)
	return err
}

// Flush writes any buffered data (and the header, if no packet was written).
func (w *Writer) Flush() error {
	if !w.headerOut {
		if err := w.writeHeader(); err != nil {
			return err
		}
	}
	return w.w.Flush()
}

// Reader consumes a pcap stream.
type Reader struct {
	r       *bufio.Reader
	order   binary.ByteOrder
	nanos   bool
	snapLen uint32
	// off is the count of stream bytes consumed by complete units: the
	// file header plus every fully-decoded record. A torn tail never
	// advances it, so it is always a valid resume point.
	off int64
	// buf is reused across ReadPacket calls when the caller permits.
	buf []byte
}

// NewReader parses the file header of r.
func NewReader(r io.Reader) (*Reader, error) {
	br := bufio.NewReaderSize(r, 1<<16)
	var hdr [fileHeaderLen]byte
	if _, err := io.ReadFull(br, hdr[:]); err != nil {
		return nil, fmt.Errorf("pcapio: reading file header: %w", err)
	}
	pr := &Reader{r: br}
	magicLE := binary.LittleEndian.Uint32(hdr[0:])
	magicBE := binary.BigEndian.Uint32(hdr[0:])
	switch {
	case magicLE == MagicMicroseconds:
		pr.order = binary.LittleEndian
	case magicLE == MagicNanoseconds:
		pr.order, pr.nanos = binary.LittleEndian, true
	case magicBE == MagicMicroseconds:
		pr.order = binary.BigEndian
	case magicBE == MagicNanoseconds:
		pr.order, pr.nanos = binary.BigEndian, true
	default:
		return nil, fmt.Errorf("%w: %#08x", ErrBadMagic, magicLE)
	}
	pr.snapLen = pr.order.Uint32(hdr[16:])
	if lt := pr.order.Uint32(hdr[20:]); lt != LinkTypeEthernet {
		return nil, fmt.Errorf("%w: %d", ErrBadLinkType, lt)
	}
	pr.off = fileHeaderLen
	return pr, nil
}

// Offset returns the number of stream bytes consumed by the file header
// and all complete records so far — the point a tailing reader should
// resume from after ErrTruncatedRecord.
func (r *Reader) Offset() int64 { return r.off }

// ReadPacket returns the next record. The returned Packet.Data aliases an
// internal buffer that is overwritten by the next call; callers that retain
// it must copy. io.EOF signals a clean end of file.
func (r *Reader) ReadPacket() (Packet, error) {
	var hdr [recordHeaderLen]byte
	if _, err := io.ReadFull(r.r, hdr[:]); err != nil {
		if err == io.EOF {
			return Packet{}, io.EOF
		}
		if err == io.ErrUnexpectedEOF {
			// Partial record header: a live writer got cut (or is still
			// writing) mid-record. Report where the complete prefix ends.
			return Packet{}, &TruncatedError{Offset: r.off}
		}
		return Packet{}, fmt.Errorf("pcapio: reading record header: %w", err)
	}
	sec := r.order.Uint32(hdr[0:])
	sub := r.order.Uint32(hdr[4:])
	capLen := r.order.Uint32(hdr[8:])
	origLen := r.order.Uint32(hdr[12:])
	if capLen > r.snapLen && r.snapLen > 0 {
		return Packet{}, fmt.Errorf("%w: cap=%d snap=%d", ErrSnapLen, capLen, r.snapLen)
	}
	if cap(r.buf) < int(capLen) {
		r.buf = make([]byte, capLen)
	}
	r.buf = r.buf[:capLen]
	if _, err := io.ReadFull(r.r, r.buf); err != nil {
		if err == io.EOF || err == io.ErrUnexpectedEOF {
			// Short body at stream end: same torn-tail case as a partial
			// header, just cut a little later.
			return Packet{}, &TruncatedError{Offset: r.off}
		}
		return Packet{}, fmt.Errorf("%w: %v", ErrShortRecord, err)
	}
	r.off += recordHeaderLen + int64(capLen)
	nanos := int64(sub) * 1000
	if r.nanos {
		nanos = int64(sub)
	}
	return Packet{
		Timestamp: time.Unix(int64(sec), nanos).UTC(),
		Data:      r.buf,
		OrigLen:   int(origLen),
	}, nil
}
