package layers

import (
	"encoding/binary"
	"fmt"
	"net/netip"
)

// UDP is a UDP header.
type UDP struct {
	SrcPort, DstPort uint16
	Length           uint16 // as decoded: header + payload
	Checksum         uint16 // as decoded; recomputed on encode
}

// UDPHeaderLen is the length of a UDP header.
const UDPHeaderLen = 8

// DecodeFromBytes parses the header and returns the payload, honoring the
// UDP length field.
func (u *UDP) DecodeFromBytes(b []byte) (payload []byte, err error) {
	if len(b) < UDPHeaderLen {
		return nil, fmt.Errorf("udp: %w", ErrTooShort)
	}
	u.SrcPort = binary.BigEndian.Uint16(b)
	u.DstPort = binary.BigEndian.Uint16(b[2:])
	u.Length = binary.BigEndian.Uint16(b[4:])
	u.Checksum = binary.BigEndian.Uint16(b[6:])
	if int(u.Length) < UDPHeaderLen || int(u.Length) > len(b) {
		return nil, fmt.Errorf("udp: %w: len=%d buf=%d", ErrBadLength, u.Length, len(b))
	}
	return b[UDPHeaderLen:u.Length], nil
}

// AppendSegment appends header+payload to b with a correct checksum
// computed over the pseudo-header for src/dst.
func (u *UDP) AppendSegment(b []byte, src, dst netip.Addr, payload []byte) ([]byte, error) {
	l4len := UDPHeaderLen + len(payload)
	if l4len > 0xFFFF {
		return nil, fmt.Errorf("udp: %w: len=%d", ErrBadLength, l4len)
	}
	start := len(b)
	b = binary.BigEndian.AppendUint16(b, u.SrcPort)
	b = binary.BigEndian.AppendUint16(b, u.DstPort)
	b = binary.BigEndian.AppendUint16(b, uint16(l4len))
	b = append(b, 0, 0) // checksum placeholder
	b = append(b, payload...)
	cs := onesComplementChecksum(b[start:], pseudoHeaderSum(src, dst, IPProtoUDP, l4len))
	if cs == 0 {
		cs = 0xFFFF // RFC 768: zero checksum means "not computed"
	}
	binary.BigEndian.PutUint16(b[start+6:], cs)
	return b, nil
}

// TCP flag bits.
const (
	TCPFlagFIN uint8 = 1 << 0
	TCPFlagSYN uint8 = 1 << 1
	TCPFlagRST uint8 = 1 << 2
	TCPFlagPSH uint8 = 1 << 3
	TCPFlagACK uint8 = 1 << 4
)

// TCP is a TCP header (options preserved as raw bytes).
type TCP struct {
	SrcPort, DstPort uint16
	Seq, Ack         uint32
	Flags            uint8
	Window           uint16
	Checksum         uint16
	Urgent           uint16
	Options          []byte
}

// TCPHeaderLen is the length of an option-less TCP header.
const TCPHeaderLen = 20

// SYN, ACK, FIN, RST report individual flags.
func (t *TCP) SYN() bool { return t.Flags&TCPFlagSYN != 0 }

// ACK reports the ACK flag.
func (t *TCP) ACK() bool { return t.Flags&TCPFlagACK != 0 }

// FIN reports the FIN flag.
func (t *TCP) FIN() bool { return t.Flags&TCPFlagFIN != 0 }

// RST reports the RST flag.
func (t *TCP) RST() bool { return t.Flags&TCPFlagRST != 0 }

// DecodeFromBytes parses the header and returns the payload.
func (t *TCP) DecodeFromBytes(b []byte) (payload []byte, err error) {
	if len(b) < TCPHeaderLen {
		return nil, fmt.Errorf("tcp: %w", ErrTooShort)
	}
	t.SrcPort = binary.BigEndian.Uint16(b)
	t.DstPort = binary.BigEndian.Uint16(b[2:])
	t.Seq = binary.BigEndian.Uint32(b[4:])
	t.Ack = binary.BigEndian.Uint32(b[8:])
	dataOff := int(b[12]>>4) * 4
	if dataOff < TCPHeaderLen || dataOff > len(b) {
		return nil, fmt.Errorf("tcp: %w: dataoff=%d", ErrBadLength, dataOff)
	}
	t.Flags = b[13]
	t.Window = binary.BigEndian.Uint16(b[14:])
	t.Checksum = binary.BigEndian.Uint16(b[16:])
	t.Urgent = binary.BigEndian.Uint16(b[18:])
	t.Options = b[TCPHeaderLen:dataOff]
	return b[dataOff:], nil
}

// AppendSegment appends header+payload to b with a correct checksum.
// Options must be a multiple of 4 bytes.
func (t *TCP) AppendSegment(b []byte, src, dst netip.Addr, payload []byte) ([]byte, error) {
	if len(t.Options)%4 != 0 {
		return nil, fmt.Errorf("tcp: %w: options %d bytes", ErrBadLength, len(t.Options))
	}
	hdrLen := TCPHeaderLen + len(t.Options)
	if hdrLen > 60 {
		return nil, fmt.Errorf("tcp: %w: header %d bytes", ErrBadLength, hdrLen)
	}
	l4len := hdrLen + len(payload)
	start := len(b)
	b = binary.BigEndian.AppendUint16(b, t.SrcPort)
	b = binary.BigEndian.AppendUint16(b, t.DstPort)
	b = binary.BigEndian.AppendUint32(b, t.Seq)
	b = binary.BigEndian.AppendUint32(b, t.Ack)
	b = append(b, byte(hdrLen/4)<<4, t.Flags)
	b = binary.BigEndian.AppendUint16(b, t.Window)
	b = append(b, 0, 0) // checksum placeholder
	b = binary.BigEndian.AppendUint16(b, t.Urgent)
	b = append(b, t.Options...)
	b = append(b, payload...)
	cs := onesComplementChecksum(b[start:], pseudoHeaderSum(src, dst, IPProtoTCP, l4len))
	binary.BigEndian.PutUint16(b[start+16:], cs)
	return b, nil
}
