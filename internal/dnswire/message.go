package dnswire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"strings"
)

// Errors returned by the message codec.
var (
	ErrShortMessage = errors.New("dnswire: message shorter than header")
	ErrTrailingData = errors.New("dnswire: trailing bytes after message")
	ErrCountiny     = errors.New("dnswire: section count exceeds message size")
)

// HeaderLen is the size of the fixed DNS header.
const HeaderLen = 12

// MinUDPSize is the classic pre-EDNS maximum DNS/UDP payload (RFC 1035).
const MinUDPSize = 512

// Message is a complete DNS message. The EDNS OPT pseudo-record is kept out
// of Additional and exposed via the Edns field; Pack re-inserts it.
type Message struct {
	Header     Header
	Questions  []Question
	Answers    []RR
	Authority  []RR
	Additional []RR
	Edns       *EDNS
}

// NewQuery builds a standard recursive-desired query for (name, type).
func NewQuery(id uint16, name string, typ Type) *Message {
	return &Message{
		Header: Header{
			ID:               id,
			Opcode:           OpcodeQuery,
			RecursionDesired: true,
		},
		Questions: []Question{{Name: CanonicalName(name), Type: typ, Class: ClassIN}},
	}
}

// WithEdns attaches an EDNS(0) OPT with the given UDP size and DO bit and
// returns m for chaining.
func (m *Message) WithEdns(udpSize uint16, do bool) *Message {
	m.Edns = &EDNS{UDPSize: udpSize, DO: do}
	return m
}

// Question returns the first question, or a zero Question if none.
func (m *Message) Question() Question {
	if len(m.Questions) == 0 {
		return Question{}
	}
	return m.Questions[0]
}

// Reply constructs a response skeleton echoing ID, question, opcode, and RD.
func (m *Message) Reply() *Message {
	r := &Message{
		Header: Header{
			ID:               m.Header.ID,
			Response:         true,
			Opcode:           m.Header.Opcode,
			RecursionDesired: m.Header.RecursionDesired,
		},
		Questions: append([]Question(nil), m.Questions...),
	}
	if m.Edns != nil {
		// Echo EDNS presence so the client knows its options were seen.
		r.Edns = &EDNS{UDPSize: MinUDPSize * 8, DO: m.Edns.DO}
	}
	return r
}

// packFlags encodes the 16-bit flags word.
func packFlags(h Header) uint16 {
	var f uint16
	if h.Response {
		f |= 1 << 15
	}
	f |= uint16(h.Opcode&0xF) << 11
	if h.Authoritative {
		f |= 1 << 10
	}
	if h.Truncated {
		f |= 1 << 9
	}
	if h.RecursionDesired {
		f |= 1 << 8
	}
	if h.RecursionAvailable {
		f |= 1 << 7
	}
	if h.AuthenticData {
		f |= 1 << 5
	}
	if h.CheckingDisabled {
		f |= 1 << 4
	}
	f |= uint16(h.RCode & 0xF)
	return f
}

// unpackFlags decodes the 16-bit flags word.
func unpackFlags(f uint16) Header {
	return Header{
		Response:           f&(1<<15) != 0,
		Opcode:             Opcode(f >> 11 & 0xF),
		Authoritative:      f&(1<<10) != 0,
		Truncated:          f&(1<<9) != 0,
		RecursionDesired:   f&(1<<8) != 0,
		RecursionAvailable: f&(1<<7) != 0,
		AuthenticData:      f&(1<<5) != 0,
		CheckingDisabled:   f&(1<<4) != 0,
		RCode:              RCode(f & 0xF),
	}
}

// appendRR appends one resource record with compression context comp.
func appendRR(b []byte, rr RR, comp *nameCompressor) ([]byte, error) {
	var err error
	if b, err = appendName(b, rr.Name, comp); err != nil {
		return b, err
	}
	b = binary.BigEndian.AppendUint16(b, uint16(rr.Data.Type()))
	b = binary.BigEndian.AppendUint16(b, uint16(rr.Class))
	b = binary.BigEndian.AppendUint32(b, rr.TTL)
	rdlenAt := len(b)
	b = append(b, 0, 0)
	if b, err = rr.Data.appendTo(b, comp); err != nil {
		return b, err
	}
	rdlen := len(b) - rdlenAt - 2
	if rdlen > 0xFFFF {
		return b, fmt.Errorf("%w: rdata %d bytes", ErrBadRData, rdlen)
	}
	binary.BigEndian.PutUint16(b[rdlenAt:], uint16(rdlen))
	return b, nil
}

// Pack serializes m with name compression.
func (m *Message) Pack() ([]byte, error) {
	return m.AppendPack(make([]byte, 0, 128))
}

// AppendPack serializes m, appending to b. Compression pointer offsets are
// relative to the message start (the initial len(b)), so a message may be
// packed into the middle of a reused buffer.
func (m *Message) AppendPack(b []byte) ([]byte, error) {
	if len(m.Questions) > 0xFFFF || len(m.Answers) > 0xFFFF ||
		len(m.Authority) > 0xFFFF || len(m.Additional)+1 > 0xFFFF {
		return nil, errors.New("dnswire: section too large")
	}
	base := len(b)
	b = binary.BigEndian.AppendUint16(b, m.Header.ID)
	b = binary.BigEndian.AppendUint16(b, packFlags(m.Header))
	b = binary.BigEndian.AppendUint16(b, uint16(len(m.Questions)))
	b = binary.BigEndian.AppendUint16(b, uint16(len(m.Answers)))
	b = binary.BigEndian.AppendUint16(b, uint16(len(m.Authority)))
	arcount := len(m.Additional)
	if m.Edns != nil {
		arcount++
	}
	b = binary.BigEndian.AppendUint16(b, uint16(arcount))

	comp := newNameCompressorAt(base)
	defer comp.release()
	var err error
	for _, q := range m.Questions {
		if b, err = appendName(b, q.Name, comp); err != nil {
			return nil, err
		}
		b = binary.BigEndian.AppendUint16(b, uint16(q.Type))
		b = binary.BigEndian.AppendUint16(b, uint16(q.Class))
	}
	for _, rr := range m.Answers {
		if b, err = appendRR(b, rr, comp); err != nil {
			return nil, err
		}
	}
	for _, rr := range m.Authority {
		if b, err = appendRR(b, rr, comp); err != nil {
			return nil, err
		}
	}
	for _, rr := range m.Additional {
		if b, err = appendRR(b, rr, comp); err != nil {
			return nil, err
		}
	}
	if m.Edns != nil {
		if b, err = appendOPT(b, m.Edns); err != nil {
			return nil, err
		}
	}
	return b, nil
}

// AppendPackTruncated appends m to b but guarantees the appended message
// fits within limit bytes, dropping whole records back-to-front
// (additional, authority, then answers) and setting TC when anything was
// dropped (RFC 2181 §9 spirit). The question section is never dropped. The
// common fits-within-limit case performs no allocation beyond growing b.
func (m *Message) AppendPackTruncated(b []byte, limit int) ([]byte, error) {
	if limit < HeaderLen {
		return nil, fmt.Errorf("dnswire: truncation limit %d below header size", limit)
	}
	start := len(b)
	out, err := m.AppendPack(b)
	if err != nil {
		return nil, err
	}
	if len(out)-start <= limit {
		return out, nil
	}
	trimmed, err := m.packTruncatedSlow(limit)
	if err != nil {
		return nil, err
	}
	return append(out[:start], trimmed...), nil
}

// packTruncatedSlow drops records until the message fits within limit.
func (m *Message) packTruncatedSlow(limit int) ([]byte, error) {
	trimmed := *m
	trimmed.Answers = append([]RR(nil), m.Answers...)
	trimmed.Authority = append([]RR(nil), m.Authority...)
	trimmed.Additional = append([]RR(nil), m.Additional...)
	trimmed.Header.Truncated = true
	for {
		switch {
		case len(trimmed.Additional) > 0:
			trimmed.Additional = trimmed.Additional[:len(trimmed.Additional)-1]
		case len(trimmed.Authority) > 0:
			trimmed.Authority = trimmed.Authority[:len(trimmed.Authority)-1]
		case len(trimmed.Answers) > 0:
			trimmed.Answers = trimmed.Answers[:len(trimmed.Answers)-1]
		default:
			// Bare header + question (+ OPT). If even that exceeds the
			// limit, drop EDNS as a last resort.
			b, err := trimmed.Pack()
			if err != nil {
				return nil, err
			}
			if len(b) <= limit {
				return b, nil
			}
			if trimmed.Edns != nil {
				trimmed.Edns = nil
				continue
			}
			return nil, fmt.Errorf("dnswire: cannot fit message in %d bytes", limit)
		}
		b, err := trimmed.Pack()
		if err != nil {
			return nil, err
		}
		if len(b) <= limit {
			return b, nil
		}
	}
}

// Unpack parses a complete DNS message. Trailing bytes are rejected; use
// UnpackPrefix to parse a message embedded in a larger buffer.
func Unpack(data []byte) (*Message, error) {
	m, n, err := UnpackPrefix(data)
	if err != nil {
		return nil, err
	}
	if n != len(data) {
		return nil, ErrTrailingData
	}
	return m, nil
}

// UnpackPrefix parses one message from the start of data and returns the
// number of bytes consumed.
func UnpackPrefix(data []byte) (*Message, int, error) {
	if len(data) < HeaderLen {
		return nil, 0, ErrShortMessage
	}
	m := &Message{}
	m.Header = unpackFlags(binary.BigEndian.Uint16(data[2:]))
	m.Header.ID = binary.BigEndian.Uint16(data)
	qd := int(binary.BigEndian.Uint16(data[4:]))
	an := int(binary.BigEndian.Uint16(data[6:]))
	ns := int(binary.BigEndian.Uint16(data[8:]))
	ar := int(binary.BigEndian.Uint16(data[10:]))
	// Each question takes ≥5 bytes; each RR ≥11. Cheap sanity bound.
	if qd*5+(an+ns+ar)*11 > len(data) {
		return nil, 0, ErrCountiny
	}
	off := HeaderLen
	for i := 0; i < qd; i++ {
		name, next, err := readName(data, off)
		if err != nil {
			return nil, 0, fmt.Errorf("question %d: %w", i, err)
		}
		if next+4 > len(data) {
			return nil, 0, ErrShortMessage
		}
		m.Questions = append(m.Questions, Question{
			Name:  name,
			Type:  Type(binary.BigEndian.Uint16(data[next:])),
			Class: Class(binary.BigEndian.Uint16(data[next+2:])),
		})
		off = next + 4
	}
	var err error
	if m.Answers, off, err = parseSection(data, off, an, "answer"); err != nil {
		return nil, 0, err
	}
	if m.Authority, off, err = parseSection(data, off, ns, "authority"); err != nil {
		return nil, 0, err
	}
	// The additional section may contain the OPT pseudo-RR.
	for i := 0; i < ar; i++ {
		name, next, err := readName(data, off)
		if err != nil {
			return nil, 0, fmt.Errorf("additional %d: %w", i, err)
		}
		if next+10 > len(data) {
			return nil, 0, ErrShortMessage
		}
		typ := Type(binary.BigEndian.Uint16(data[next:]))
		class := binary.BigEndian.Uint16(data[next+2:])
		ttl := binary.BigEndian.Uint32(data[next+4:])
		rdlen := int(binary.BigEndian.Uint16(data[next+8:]))
		rdoff := next + 10
		if rdoff+rdlen > len(data) {
			return nil, 0, ErrTruncatedRData
		}
		if typ == TypeOPT {
			if name != "." {
				return nil, 0, fmt.Errorf("%w: OPT owner %q", ErrBadRData, name)
			}
			e, err := parseOPT(class, ttl, data[rdoff:rdoff+rdlen])
			if err != nil {
				return nil, 0, err
			}
			m.Edns = e
			// Fold extended RCODE bits into the header view.
			m.Header.RCode |= RCode(e.ExtRCode) << 4
		} else {
			rdata, err := parseRData(typ, data, rdoff, rdlen)
			if err != nil {
				return nil, 0, fmt.Errorf("additional %d: %w", i, err)
			}
			m.Additional = append(m.Additional, RR{
				Name: name, Class: Class(class), TTL: ttl, Data: rdata,
			})
		}
		off = rdoff + rdlen
	}
	return m, off, nil
}

// parseSection parses count resource records starting at off.
func parseSection(data []byte, off, count int, what string) ([]RR, int, error) {
	if count == 0 {
		return nil, off, nil
	}
	rrs := make([]RR, 0, count)
	for i := 0; i < count; i++ {
		name, next, err := readName(data, off)
		if err != nil {
			return nil, 0, fmt.Errorf("%s %d: %w", what, i, err)
		}
		if next+10 > len(data) {
			return nil, 0, ErrShortMessage
		}
		typ := Type(binary.BigEndian.Uint16(data[next:]))
		class := Class(binary.BigEndian.Uint16(data[next+2:]))
		ttl := binary.BigEndian.Uint32(data[next+4:])
		rdlen := int(binary.BigEndian.Uint16(data[next+8:]))
		rdoff := next + 10
		rdata, err := parseRData(typ, data, rdoff, rdlen)
		if err != nil {
			return nil, 0, fmt.Errorf("%s %d: %w", what, i, err)
		}
		rrs = append(rrs, RR{Name: name, Class: class, TTL: ttl, Data: rdata})
		off = rdoff + rdlen
	}
	return rrs, off, nil
}

// String renders the message in dig-like presentation form.
func (m *Message) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, ";; id=%d opcode=%d rcode=%s qr=%v aa=%v tc=%v rd=%v ra=%v ad=%v\n",
		m.Header.ID, m.Header.Opcode, m.Header.RCode, m.Header.Response,
		m.Header.Authoritative, m.Header.Truncated,
		m.Header.RecursionDesired, m.Header.RecursionAvailable, m.Header.AuthenticData)
	if m.Edns != nil {
		fmt.Fprintf(&sb, ";; %s\n", m.Edns)
	}
	for _, q := range m.Questions {
		fmt.Fprintf(&sb, ";%s\n", q)
	}
	for _, rr := range m.Answers {
		fmt.Fprintf(&sb, "%s\n", rr)
	}
	for _, rr := range m.Authority {
		fmt.Fprintf(&sb, "%s ; authority\n", rr)
	}
	for _, rr := range m.Additional {
		fmt.Fprintf(&sb, "%s ; additional\n", rr)
	}
	return sb.String()
}
