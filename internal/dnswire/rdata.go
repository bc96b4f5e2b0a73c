package dnswire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"net/netip"
)

// Errors returned by the RDATA codec.
var (
	ErrTruncatedRData = errors.New("dnswire: truncated rdata")
	ErrBadRData       = errors.New("dnswire: malformed rdata")
)

// RData is the typed payload of a resource record. Concrete implementations
// (AData, NSData, ...) know how to append themselves to the wire.
// Compression is only used for name fields where RFC 3597 permits it
// (NS, CNAME, PTR, SOA, MX); DNSSEC types always embed uncompressed names.
type RData interface {
	// Type returns the record type this payload belongs to.
	Type() Type
	// appendTo appends the RDATA wire bytes (without the length prefix).
	appendTo(b []byte, comp *nameCompressor) ([]byte, error)
	// String renders the RDATA in zone-file presentation style.
	String() string
}

// RR is one resource record: an owner name, TTL, class and typed payload.
type RR struct {
	Name  string
	Class Class
	TTL   uint32
	Data  RData
}

// String renders the RR in zone-file style.
func (rr RR) String() string {
	return fmt.Sprintf("%s %d %s %s %s",
		CanonicalName(rr.Name), rr.TTL, rr.Class, rr.Data.Type(), rr.Data.String())
}

// AData is an IPv4 address record (RFC 1035).
type AData struct{ Addr netip.Addr }

// Type implements RData.
func (AData) Type() Type { return TypeA }

func (d AData) appendTo(b []byte, _ *nameCompressor) ([]byte, error) {
	if !d.Addr.Is4() {
		return b, fmt.Errorf("%w: A record requires IPv4, got %s", ErrBadRData, d.Addr)
	}
	a4 := d.Addr.As4()
	return append(b, a4[:]...), nil
}

// String implements RData.
func (d AData) String() string { return d.Addr.String() }

// AAAAData is an IPv6 address record (RFC 3596).
type AAAAData struct{ Addr netip.Addr }

// Type implements RData.
func (AAAAData) Type() Type { return TypeAAAA }

func (d AAAAData) appendTo(b []byte, _ *nameCompressor) ([]byte, error) {
	if !d.Addr.Is6() || d.Addr.Is4In6() {
		return b, fmt.Errorf("%w: AAAA record requires IPv6, got %s", ErrBadRData, d.Addr)
	}
	a16 := d.Addr.As16()
	return append(b, a16[:]...), nil
}

// String implements RData.
func (d AAAAData) String() string { return d.Addr.String() }

// NSData names an authoritative server for the owner zone.
type NSData struct{ Host string }

// Type implements RData.
func (NSData) Type() Type { return TypeNS }

func (d NSData) appendTo(b []byte, comp *nameCompressor) ([]byte, error) {
	return appendName(b, d.Host, comp)
}

// String implements RData.
func (d NSData) String() string { return CanonicalName(d.Host) }

// CNAMEData is a canonical-name alias.
type CNAMEData struct{ Target string }

// Type implements RData.
func (CNAMEData) Type() Type { return TypeCNAME }

func (d CNAMEData) appendTo(b []byte, comp *nameCompressor) ([]byte, error) {
	return appendName(b, d.Target, comp)
}

// String implements RData.
func (d CNAMEData) String() string { return CanonicalName(d.Target) }

// PTRData maps an address back to a name (reverse DNS).
type PTRData struct{ Target string }

// Type implements RData.
func (PTRData) Type() Type { return TypePTR }

func (d PTRData) appendTo(b []byte, comp *nameCompressor) ([]byte, error) {
	return appendName(b, d.Target, comp)
}

// String implements RData.
func (d PTRData) String() string { return CanonicalName(d.Target) }

// SOAData is the start-of-authority record of a zone.
type SOAData struct {
	MName   string
	RName   string
	Serial  uint32
	Refresh uint32
	Retry   uint32
	Expire  uint32
	Minimum uint32
}

// Type implements RData.
func (SOAData) Type() Type { return TypeSOA }

func (d SOAData) appendTo(b []byte, comp *nameCompressor) ([]byte, error) {
	var err error
	if b, err = appendName(b, d.MName, comp); err != nil {
		return b, err
	}
	if b, err = appendName(b, d.RName, comp); err != nil {
		return b, err
	}
	b = binary.BigEndian.AppendUint32(b, d.Serial)
	b = binary.BigEndian.AppendUint32(b, d.Refresh)
	b = binary.BigEndian.AppendUint32(b, d.Retry)
	b = binary.BigEndian.AppendUint32(b, d.Expire)
	b = binary.BigEndian.AppendUint32(b, d.Minimum)
	return b, nil
}

// String implements RData.
func (d SOAData) String() string {
	return fmt.Sprintf("%s %s %d %d %d %d %d",
		CanonicalName(d.MName), CanonicalName(d.RName),
		d.Serial, d.Refresh, d.Retry, d.Expire, d.Minimum)
}

// MXData names a mail exchanger with a preference value.
type MXData struct {
	Preference uint16
	Exchange   string
}

// Type implements RData.
func (MXData) Type() Type { return TypeMX }

func (d MXData) appendTo(b []byte, comp *nameCompressor) ([]byte, error) {
	b = binary.BigEndian.AppendUint16(b, d.Preference)
	return appendName(b, d.Exchange, comp)
}

// String implements RData.
func (d MXData) String() string {
	return fmt.Sprintf("%d %s", d.Preference, CanonicalName(d.Exchange))
}

// TXTData carries one or more character strings, each ≤255 bytes.
type TXTData struct{ Strings []string }

// Type implements RData.
func (TXTData) Type() Type { return TypeTXT }

func (d TXTData) appendTo(b []byte, _ *nameCompressor) ([]byte, error) {
	if len(d.Strings) == 0 {
		// An empty TXT is encoded as a single empty character-string.
		return append(b, 0), nil
	}
	for _, s := range d.Strings {
		if len(s) > 255 {
			return b, fmt.Errorf("%w: TXT string exceeds 255 bytes", ErrBadRData)
		}
		b = append(b, byte(len(s)))
		b = append(b, s...)
	}
	return b, nil
}

// String implements RData.
func (d TXTData) String() string {
	out := ""
	for i, s := range d.Strings {
		if i > 0 {
			out += " "
		}
		out += fmt.Sprintf("%q", s)
	}
	return out
}

// SRVData locates a service (RFC 2782). Target must not be compressed.
type SRVData struct {
	Priority uint16
	Weight   uint16
	Port     uint16
	Target   string
}

// Type implements RData.
func (SRVData) Type() Type { return TypeSRV }

func (d SRVData) appendTo(b []byte, _ *nameCompressor) ([]byte, error) {
	b = binary.BigEndian.AppendUint16(b, d.Priority)
	b = binary.BigEndian.AppendUint16(b, d.Weight)
	b = binary.BigEndian.AppendUint16(b, d.Port)
	return appendName(b, d.Target, nil)
}

// String implements RData.
func (d SRVData) String() string {
	return fmt.Sprintf("%d %d %d %s", d.Priority, d.Weight, d.Port, CanonicalName(d.Target))
}

// DSData is a delegation-signer digest over a child zone's DNSKEY
// (RFC 4034 §5). DNSSEC-validating resolvers — the paper uses DS query
// volume as the validation signal — fetch these from the parent.
type DSData struct {
	KeyTag     uint16
	Algorithm  uint8
	DigestType uint8
	Digest     []byte
}

// Type implements RData.
func (DSData) Type() Type { return TypeDS }

func (d DSData) appendTo(b []byte, _ *nameCompressor) ([]byte, error) {
	b = binary.BigEndian.AppendUint16(b, d.KeyTag)
	b = append(b, d.Algorithm, d.DigestType)
	return append(b, d.Digest...), nil
}

// String implements RData.
func (d DSData) String() string {
	return fmt.Sprintf("%d %d %d %X", d.KeyTag, d.Algorithm, d.DigestType, d.Digest)
}

// DNSKEYData is a zone public key (RFC 4034 §2).
type DNSKEYData struct {
	Flags     uint16
	Protocol  uint8
	Algorithm uint8
	PublicKey []byte
}

// Type implements RData.
func (DNSKEYData) Type() Type { return TypeDNSKEY }

func (d DNSKEYData) appendTo(b []byte, _ *nameCompressor) ([]byte, error) {
	b = binary.BigEndian.AppendUint16(b, d.Flags)
	b = append(b, d.Protocol, d.Algorithm)
	return append(b, d.PublicKey...), nil
}

// String implements RData.
func (d DNSKEYData) String() string {
	return fmt.Sprintf("%d %d %d (%d-byte key)", d.Flags, d.Protocol, d.Algorithm, len(d.PublicKey))
}

// RRSIGData is a signature over an RRSet (RFC 4034 §3).
type RRSIGData struct {
	TypeCovered Type
	Algorithm   uint8
	Labels      uint8
	OriginalTTL uint32
	Expiration  uint32
	Inception   uint32
	KeyTag      uint16
	SignerName  string
	Signature   []byte
}

// Type implements RData.
func (RRSIGData) Type() Type { return TypeRRSIG }

func (d RRSIGData) appendTo(b []byte, _ *nameCompressor) ([]byte, error) {
	b = binary.BigEndian.AppendUint16(b, uint16(d.TypeCovered))
	b = append(b, d.Algorithm, d.Labels)
	b = binary.BigEndian.AppendUint32(b, d.OriginalTTL)
	b = binary.BigEndian.AppendUint32(b, d.Expiration)
	b = binary.BigEndian.AppendUint32(b, d.Inception)
	b = binary.BigEndian.AppendUint16(b, d.KeyTag)
	var err error
	if b, err = appendName(b, d.SignerName, nil); err != nil {
		return b, err
	}
	return append(b, d.Signature...), nil
}

// String implements RData.
func (d RRSIGData) String() string {
	return fmt.Sprintf("%s %d %d %d %d %d %d %s (%d-byte sig)",
		d.TypeCovered, d.Algorithm, d.Labels, d.OriginalTTL,
		d.Expiration, d.Inception, d.KeyTag, CanonicalName(d.SignerName), len(d.Signature))
}

// NSECData proves nonexistence ranges (RFC 4034 §4); used for aggressive
// negative caching (RFC 8198), which the paper cites as a possible cause of
// declining junk from the clouds.
type NSECData struct {
	NextName string
	Types    []Type
}

// Type implements RData.
func (NSECData) Type() Type { return TypeNSEC }

func (d NSECData) appendTo(b []byte, _ *nameCompressor) ([]byte, error) {
	var err error
	if b, err = appendName(b, d.NextName, nil); err != nil {
		return b, err
	}
	return appendTypeBitmap(b, d.Types)
}

// String implements RData.
func (d NSECData) String() string {
	out := CanonicalName(d.NextName)
	for _, t := range d.Types {
		out += " " + t.String()
	}
	return out
}

// appendTypeBitmap encodes the NSEC window-block type bitmap (RFC 4034 §4.1.2).
func appendTypeBitmap(b []byte, types []Type) ([]byte, error) {
	if len(types) == 0 {
		return b, nil
	}
	// Group by window (high byte), windows must be emitted in order.
	windows := make(map[byte][]byte) // window -> 32-byte bitmap
	for _, t := range types {
		w := byte(t >> 8)
		lo := byte(t)
		bm := windows[w]
		if bm == nil {
			bm = make([]byte, 32)
			windows[w] = bm
		}
		bm[lo/8] |= 0x80 >> (lo % 8)
	}
	for w := 0; w < 256; w++ {
		bm, ok := windows[byte(w)]
		if !ok {
			continue
		}
		// Trim trailing zero octets; length must be ≥1.
		n := 32
		for n > 0 && bm[n-1] == 0 {
			n--
		}
		b = append(b, byte(w), byte(n))
		b = append(b, bm[:n]...)
	}
	return b, nil
}

// parseTypeBitmap decodes an NSEC type bitmap.
func parseTypeBitmap(b []byte) ([]Type, error) {
	var types []Type
	for len(b) > 0 {
		if len(b) < 2 {
			return nil, ErrTruncatedRData
		}
		window, n := b[0], int(b[1])
		b = b[2:]
		if n < 1 || n > 32 || len(b) < n {
			return nil, ErrBadRData
		}
		for i := 0; i < n; i++ {
			for bit := 0; bit < 8; bit++ {
				if b[i]&(0x80>>bit) != 0 {
					types = append(types, Type(uint16(window)<<8|uint16(i*8+bit)))
				}
			}
		}
		b = b[n:]
	}
	return types, nil
}

// CAAData restricts which CAs may issue for a domain (RFC 8659).
type CAAData struct {
	Flags uint8
	Tag   string
	Value string
}

// Type implements RData.
func (CAAData) Type() Type { return TypeCAA }

func (d CAAData) appendTo(b []byte, _ *nameCompressor) ([]byte, error) {
	if len(d.Tag) == 0 || len(d.Tag) > 255 {
		return b, fmt.Errorf("%w: CAA tag length %d", ErrBadRData, len(d.Tag))
	}
	b = append(b, d.Flags, byte(len(d.Tag)))
	b = append(b, d.Tag...)
	return append(b, d.Value...), nil
}

// String implements RData.
func (d CAAData) String() string {
	return fmt.Sprintf("%d %s %q", d.Flags, d.Tag, d.Value)
}

// RawData carries RDATA of a type this codec does not model (RFC 3597
// handling of unknown types); it round-trips verbatim.
type RawData struct {
	RRType Type
	Data   []byte
}

// Type implements RData.
func (d RawData) Type() Type { return d.RRType }

func (d RawData) appendTo(b []byte, _ *nameCompressor) ([]byte, error) {
	return append(b, d.Data...), nil
}

// String implements RData.
func (d RawData) String() string { return fmt.Sprintf("\\# %d %X", len(d.Data), d.Data) }

// parseRData decodes the RDATA of the given type from msg[off:off+rdlen].
// msg is the full message so compressed names can be followed.
func parseRData(typ Type, msg []byte, off, rdlen int) (RData, error) {
	if off+rdlen > len(msg) {
		return nil, ErrTruncatedRData
	}
	rd := msg[off : off+rdlen]
	switch typ {
	case TypeA:
		if rdlen != 4 {
			return nil, fmt.Errorf("%w: A rdlen %d", ErrBadRData, rdlen)
		}
		return AData{Addr: netip.AddrFrom4([4]byte(rd))}, nil
	case TypeAAAA:
		if rdlen != 16 {
			return nil, fmt.Errorf("%w: AAAA rdlen %d", ErrBadRData, rdlen)
		}
		return AAAAData{Addr: netip.AddrFrom16([16]byte(rd))}, nil
	case TypeNS:
		host, _, err := readName(msg, off)
		return NSData{Host: host}, err
	case TypeCNAME:
		target, _, err := readName(msg, off)
		return CNAMEData{Target: target}, err
	case TypePTR:
		target, _, err := readName(msg, off)
		return PTRData{Target: target}, err
	case TypeSOA:
		mname, next, err := readName(msg, off)
		if err != nil {
			return nil, err
		}
		rname, next, err := readName(msg, next)
		if err != nil {
			return nil, err
		}
		if next+20 > off+rdlen {
			return nil, ErrTruncatedRData
		}
		return SOAData{
			MName:   mname,
			RName:   rname,
			Serial:  binary.BigEndian.Uint32(msg[next:]),
			Refresh: binary.BigEndian.Uint32(msg[next+4:]),
			Retry:   binary.BigEndian.Uint32(msg[next+8:]),
			Expire:  binary.BigEndian.Uint32(msg[next+12:]),
			Minimum: binary.BigEndian.Uint32(msg[next+16:]),
		}, nil
	case TypeMX:
		if rdlen < 3 {
			return nil, ErrTruncatedRData
		}
		exch, _, err := readName(msg, off+2)
		return MXData{Preference: binary.BigEndian.Uint16(rd), Exchange: exch}, err
	case TypeTXT:
		var ss []string
		for i := 0; i < len(rd); {
			l := int(rd[i])
			if i+1+l > len(rd) {
				return nil, ErrTruncatedRData
			}
			ss = append(ss, string(rd[i+1:i+1+l]))
			i += 1 + l
		}
		return TXTData{Strings: ss}, nil
	case TypeSRV:
		if rdlen < 7 {
			return nil, ErrTruncatedRData
		}
		target, _, err := readName(msg, off+6)
		return SRVData{
			Priority: binary.BigEndian.Uint16(rd),
			Weight:   binary.BigEndian.Uint16(rd[2:]),
			Port:     binary.BigEndian.Uint16(rd[4:]),
			Target:   target,
		}, err
	case TypeDS:
		if rdlen < 4 {
			return nil, ErrTruncatedRData
		}
		return DSData{
			KeyTag:     binary.BigEndian.Uint16(rd),
			Algorithm:  rd[2],
			DigestType: rd[3],
			Digest:     append([]byte(nil), rd[4:]...),
		}, nil
	case TypeDNSKEY:
		if rdlen < 4 {
			return nil, ErrTruncatedRData
		}
		return DNSKEYData{
			Flags:     binary.BigEndian.Uint16(rd),
			Protocol:  rd[2],
			Algorithm: rd[3],
			PublicKey: append([]byte(nil), rd[4:]...),
		}, nil
	case TypeRRSIG:
		if rdlen < 18 {
			return nil, ErrTruncatedRData
		}
		signer, next, err := readName(msg, off+18)
		if err != nil {
			return nil, err
		}
		if next > off+rdlen {
			// The signer name may follow compression pointers beyond the
			// rdata, but its in-place encoding must end inside it.
			return nil, ErrTruncatedRData
		}
		return RRSIGData{
			TypeCovered: Type(binary.BigEndian.Uint16(rd)),
			Algorithm:   rd[2],
			Labels:      rd[3],
			OriginalTTL: binary.BigEndian.Uint32(rd[4:]),
			Expiration:  binary.BigEndian.Uint32(rd[8:]),
			Inception:   binary.BigEndian.Uint32(rd[12:]),
			KeyTag:      binary.BigEndian.Uint16(rd[16:]),
			SignerName:  signer,
			Signature:   append([]byte(nil), msg[next:off+rdlen]...),
		}, nil
	case TypeNSEC:
		next, rest, err := readName(msg, off)
		if err != nil {
			return nil, err
		}
		if rest > off+rdlen {
			return nil, ErrTruncatedRData
		}
		types, err := parseTypeBitmap(msg[rest : off+rdlen])
		if err != nil {
			return nil, err
		}
		return NSECData{NextName: next, Types: types}, nil
	case TypeSVCB, TypeHTTPS:
		return parseSVCB(typ, msg, off, rdlen)
	case TypeNSEC3:
		return parseNSEC3(rd)
	case TypeNSEC3PARAM:
		return parseNSEC3PARAM(rd)
	case TypeCAA:
		if rdlen < 2 {
			return nil, ErrTruncatedRData
		}
		tl := int(rd[1])
		if 2+tl > len(rd) {
			return nil, ErrTruncatedRData
		}
		return CAAData{Flags: rd[0], Tag: string(rd[2 : 2+tl]), Value: string(rd[2+tl:])}, nil
	default:
		return RawData{RRType: typ, Data: append([]byte(nil), rd...)}, nil
	}
}

// validateRData mirrors parseRData's accept/reject decisions without
// materializing anything, so dnswire.View counts exactly the same
// messages malformed as Unpack while staying allocation-free. Every
// branch here must track its parseRData twin — FuzzViewParity enforces
// the lockstep, so a change to one without the other fails fuzzing.
func validateRData(typ Type, msg []byte, off, rdlen int) error {
	if off+rdlen > len(msg) {
		return ErrTruncatedRData
	}
	rd := msg[off : off+rdlen]
	switch typ {
	case TypeA:
		if rdlen != 4 {
			return ErrBadRData
		}
	case TypeAAAA:
		if rdlen != 16 {
			return ErrBadRData
		}
	case TypeNS, TypeCNAME, TypePTR:
		_, err := skipName(msg, off)
		return err
	case TypeSOA:
		next, err := skipName(msg, off)
		if err != nil {
			return err
		}
		if next, err = skipName(msg, next); err != nil {
			return err
		}
		if next+20 > off+rdlen {
			return ErrTruncatedRData
		}
	case TypeMX:
		if rdlen < 3 {
			return ErrTruncatedRData
		}
		_, err := skipName(msg, off+2)
		return err
	case TypeTXT:
		for i := 0; i < len(rd); {
			l := int(rd[i])
			if i+1+l > len(rd) {
				return ErrTruncatedRData
			}
			i += 1 + l
		}
	case TypeSRV:
		if rdlen < 7 {
			return ErrTruncatedRData
		}
		_, err := skipName(msg, off+6)
		return err
	case TypeDS, TypeDNSKEY:
		if rdlen < 4 {
			return ErrTruncatedRData
		}
	case TypeRRSIG:
		if rdlen < 18 {
			return ErrTruncatedRData
		}
		next, err := skipName(msg, off+18)
		if err != nil {
			return err
		}
		if next > off+rdlen {
			return ErrTruncatedRData
		}
	case TypeNSEC:
		rest, err := skipName(msg, off)
		if err != nil {
			return err
		}
		if rest > off+rdlen {
			return ErrTruncatedRData
		}
		return validateTypeBitmap(msg[rest : off+rdlen])
	case TypeSVCB, TypeHTTPS:
		if rdlen < 3 {
			return ErrTruncatedRData
		}
		next, err := skipName(msg, off+2)
		if err != nil {
			return err
		}
		end := off + rdlen
		lastKey := -1
		for next < end {
			if next+4 > end {
				return ErrTruncatedRData
			}
			key := int(binary.BigEndian.Uint16(msg[next:]))
			vlen := int(binary.BigEndian.Uint16(msg[next+2:]))
			next += 4
			if next+vlen > end {
				return ErrTruncatedRData
			}
			if key <= lastKey {
				return ErrBadRData
			}
			lastKey = key
			next += vlen
		}
	case TypeNSEC3:
		if len(rd) < 5 {
			return ErrTruncatedRData
		}
		saltLen := int(rd[4])
		if len(rd) < 5+saltLen+1 {
			return ErrTruncatedRData
		}
		o := 5 + saltLen
		hashLen := int(rd[o])
		o++
		if len(rd) < o+hashLen {
			return ErrTruncatedRData
		}
		return validateTypeBitmap(rd[o+hashLen:])
	case TypeNSEC3PARAM:
		if len(rd) < 5 {
			return ErrTruncatedRData
		}
		if len(rd) < 5+int(rd[4]) {
			return ErrTruncatedRData
		}
	case TypeCAA:
		if rdlen < 2 {
			return ErrTruncatedRData
		}
		if 2+int(rd[1]) > len(rd) {
			return ErrTruncatedRData
		}
	default:
		// Unknown types (RFC 3597) are accepted verbatim, like parseRData.
	}
	return nil
}

// validateTypeBitmap mirrors parseTypeBitmap without building the type
// slice.
func validateTypeBitmap(b []byte) error {
	for len(b) > 0 {
		if len(b) < 2 {
			return ErrTruncatedRData
		}
		n := int(b[1])
		b = b[2:]
		if n < 1 || n > 32 || len(b) < n {
			return ErrBadRData
		}
		b = b[n:]
	}
	return nil
}
