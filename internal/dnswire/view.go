package dnswire

import (
	"encoding/binary"
	"errors"
)

// ErrNoQuestion is returned by View.Question when QDCOUNT is zero.
var ErrNoQuestion = errors.New("dnswire: message has no question")

// EDNSInfo is the fixed-size subset of the OPT pseudo-record the analyzer
// consumes; unlike EDNS it carries no option slice and so costs nothing to
// return by value.
type EDNSInfo struct {
	UDPSize  uint16
	ExtRCode uint8
	Version  uint8
	DO       bool
}

// View is a zero-allocation lazy decoder over a raw DNS message. Where
// Unpack materializes every section — name strings, rdata structs, option
// slices — a View only records offsets: Reset validates the fixed header
// and count sanity, and the first accessor that needs section data runs a
// single cached walk (walk) that validates the entire message without
// building anything.
//
// The walk accepts and rejects exactly the inputs Unpack does. This is a
// hard requirement, not an optimization nicety: the entrada analyzer
// counts a packet as malformed when decoding fails, so a View that was
// more or less strict than Unpack would make the analyzer miscount
// malformed packets. FuzzViewParity pins the equivalence.
//
// A View is meant to be embedded and reused: Reset(nil-or-next-payload)
// between packets, no per-message state escapes. It must not outlive the
// buffer it was Reset with. Not safe for concurrent use.
type View struct {
	data []byte

	walked  bool
	walkErr error

	end    int // offset just past the last RR, valid after a clean walk
	qFixed int // offset of the first question's qtype, 0 if QDCOUNT == 0

	hasOPT  bool
	optUDP  uint16
	optExt  uint8
	optVer  uint8
	optDO   bool
	extFold RCode // OR of RCode(ExtRCode)<<4 across every OPT, as Unpack folds
}

// Reset points the View at a new raw message, dropping all cached state.
// It performs only the O(1) checks — header length and the section-count
// sanity bound — so the hot path can reject garbage before walking.
// Accessors must not be called after Reset returns an error.
func (v *View) Reset(data []byte) error {
	*v = View{data: data}
	if len(data) < HeaderLen {
		v.walked, v.walkErr = true, ErrShortMessage
		return v.walkErr
	}
	qd := int(binary.BigEndian.Uint16(data[4:]))
	an := int(binary.BigEndian.Uint16(data[6:]))
	ns := int(binary.BigEndian.Uint16(data[8:]))
	ar := int(binary.BigEndian.Uint16(data[10:]))
	// Each question takes ≥5 bytes; each RR ≥11 — same bound as Unpack.
	if qd*5+(an+ns+ar)*11 > len(data) {
		v.walked, v.walkErr = true, ErrCountiny
		return v.walkErr
	}
	return nil
}

// Header field accessors: valid whenever Reset succeeded, no walk needed.

// ID returns the message ID.
func (v *View) ID() uint16 { return binary.BigEndian.Uint16(v.data) }

func (v *View) flags() uint16 { return binary.BigEndian.Uint16(v.data[2:]) }

// Response reports the QR bit.
func (v *View) Response() bool { return v.flags()&(1<<15) != 0 }

// Opcode returns the 4-bit opcode.
func (v *View) Opcode() Opcode { return Opcode(v.flags() >> 11 & 0xF) }

// Truncated reports the TC bit.
func (v *View) Truncated() bool { return v.flags()&(1<<9) != 0 }

// RCode returns the low 4 RCODE bits from the header only; use FullRCode
// for the extended-RCODE view Unpack exposes.
func (v *View) RCode() RCode { return RCode(v.flags() & 0xF) }

// QDCount returns QDCOUNT.
func (v *View) QDCount() uint16 { return binary.BigEndian.Uint16(v.data[4:]) }

// ANCount returns ANCOUNT.
func (v *View) ANCount() uint16 { return binary.BigEndian.Uint16(v.data[6:]) }

// NSCount returns NSCOUNT.
func (v *View) NSCount() uint16 { return binary.BigEndian.Uint16(v.data[8:]) }

// ARCount returns ARCOUNT, including any OPT pseudo-record.
func (v *View) ARCount() uint16 { return binary.BigEndian.Uint16(v.data[10:]) }

// Validate runs the full structural walk plus Unpack's trailing-bytes
// check, so Validate() == nil exactly when Unpack would succeed.
func (v *View) Validate() error {
	if err := v.walk(); err != nil {
		return err
	}
	if v.end != len(v.data) {
		return ErrTrailingData
	}
	return nil
}

// FullRCode returns the RCODE with extended bits from any OPT record
// folded in, matching Message.Header.RCode after Unpack.
func (v *View) FullRCode() (RCode, error) {
	if err := v.walk(); err != nil {
		return 0, err
	}
	return v.RCode() | v.extFold, nil
}

// QuestionType returns the first question's type and class without
// materializing the qname — the common case for the analyzer, which only
// needs the name itself for the rare NS-query minimization heuristic.
func (v *View) QuestionType() (Type, Class, error) {
	if err := v.walk(); err != nil {
		return 0, 0, err
	}
	if v.qFixed == 0 {
		return 0, 0, ErrNoQuestion
	}
	return Type(binary.BigEndian.Uint16(v.data[v.qFixed:])),
		Class(binary.BigEndian.Uint16(v.data[v.qFixed+2:])),
		nil
}

// Question appends the canonical (lowercased, dot-terminated) first qname
// to buf and returns the grown slice plus qtype and qclass. Passing a
// reused scratch buffer makes the call allocation-free; the returned
// slice aliases buf's array, not the message.
func (v *View) Question(buf []byte) ([]byte, Type, Class, error) {
	if err := v.walk(); err != nil {
		return buf, 0, 0, err
	}
	if v.qFixed == 0 {
		return buf, 0, 0, ErrNoQuestion
	}
	name, _, err := appendNameBytes(buf, v.data, HeaderLen)
	if err != nil {
		// Unreachable after a clean walk; kept for interface honesty.
		return buf, 0, 0, err
	}
	return name,
		Type(binary.BigEndian.Uint16(v.data[v.qFixed:])),
		Class(binary.BigEndian.Uint16(v.data[v.qFixed+2:])),
		nil
}

// QuestionEnd returns the offset just past the first question — the
// header-plus-question prefix length. The recursor tier uses it to clip
// a response at the question boundary when forcing TC=1 for clients
// whose EDNS budget the cached answer exceeds.
func (v *View) QuestionEnd() (int, error) {
	if err := v.walk(); err != nil {
		return 0, err
	}
	if v.qFixed == 0 {
		return 0, ErrNoQuestion
	}
	return v.qFixed + 4, nil
}

// EDNS reports whether the additional section carries an OPT record and,
// if so, its fixed fields. When several OPTs are present the last one
// wins, matching Unpack's m.Edns behavior.
func (v *View) EDNS() (EDNSInfo, bool, error) {
	if err := v.walk(); err != nil {
		return EDNSInfo{}, false, err
	}
	if !v.hasOPT {
		return EDNSInfo{}, false, nil
	}
	return EDNSInfo{
		UDPSize:  v.optUDP,
		ExtRCode: v.optExt,
		Version:  v.optVer,
		DO:       v.optDO,
	}, true, nil
}

// walk runs (once) the full structural validation pass: every name
// crossed with skipName, every RR bounds-checked, every rdata run through
// the validate-only mirror of parseRData, and OPT records decoded into
// the View's fixed fields. Errors are cached so repeated accessor calls
// stay cheap.
func (v *View) walk() error {
	if v.walked {
		return v.walkErr
	}
	v.walked = true
	v.walkErr = v.doWalk()
	return v.walkErr
}

func (v *View) doWalk() error {
	data := v.data
	qd := int(v.QDCount())
	an := int(v.ANCount())
	ns := int(v.NSCount())
	ar := int(v.ARCount())

	off := HeaderLen
	for i := 0; i < qd; i++ {
		next, err := skipName(data, off)
		if err != nil {
			return err
		}
		if next+4 > len(data) {
			return ErrShortMessage
		}
		if i == 0 {
			v.qFixed = next
		}
		off = next + 4
	}
	var err error
	if off, err = v.walkSection(off, an+ns); err != nil {
		return err
	}
	// Additional section: scan for OPT pseudo-RRs, mirroring Unpack's
	// dedicated loop (bounds check before the OPT branch, root owner
	// required, extended RCODE bits OR-accumulated, last OPT wins).
	for i := 0; i < ar; i++ {
		nameOff := off
		next, err := skipName(data, off)
		if err != nil {
			return err
		}
		if next+10 > len(data) {
			return ErrShortMessage
		}
		typ := Type(binary.BigEndian.Uint16(data[next:]))
		class := binary.BigEndian.Uint16(data[next+2:])
		ttl := binary.BigEndian.Uint32(data[next+4:])
		rdlen := int(binary.BigEndian.Uint16(data[next+8:]))
		rdoff := next + 10
		if rdoff+rdlen > len(data) {
			return ErrTruncatedRData
		}
		if typ == TypeOPT {
			if !nameIsRoot(data, nameOff) {
				return ErrBadRData
			}
			if err := validateOPTRData(data[rdoff : rdoff+rdlen]); err != nil {
				return err
			}
			v.hasOPT = true
			v.optUDP = class
			v.optExt = uint8(ttl >> 24)
			v.optVer = uint8(ttl >> 16)
			v.optDO = ttl&(1<<15) != 0
			v.extFold |= RCode(v.optExt) << 4
		} else if err := validateRData(typ, data, rdoff, rdlen); err != nil {
			return err
		}
		off = rdoff + rdlen
	}
	v.end = off
	return nil
}

// walkSection validates count generic RRs (answers + authority) starting
// at off, mirroring parseSection.
func (v *View) walkSection(off, count int) (int, error) {
	data := v.data
	for i := 0; i < count; i++ {
		next, err := skipName(data, off)
		if err != nil {
			return 0, err
		}
		if next+10 > len(data) {
			return 0, ErrShortMessage
		}
		typ := Type(binary.BigEndian.Uint16(data[next:]))
		rdlen := int(binary.BigEndian.Uint16(data[next+8:]))
		rdoff := next + 10
		if err := validateRData(typ, data, rdoff, rdlen); err != nil {
			return 0, err
		}
		off = rdoff + rdlen
	}
	return off, nil
}
