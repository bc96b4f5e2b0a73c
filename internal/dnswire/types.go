// Package dnswire implements the DNS wire format (RFC 1035 and extensions):
// domain-name encoding with message compression, the fixed message header,
// questions, resource records for the record types the reproduction needs
// (A, AAAA, NS, CNAME, SOA, PTR, MX, TXT, DS, DNSKEY, RRSIG, NSEC, SRV, CAA),
// and EDNS(0) OPT pseudo-records (RFC 6891).
//
// The codec is allocation-conscious but favors clarity: Message values are
// plain structs that can be built by hand, packed with Pack or PackBuffer,
// and parsed back with Unpack. Truncation to a UDP payload budget is
// supported via AppendPackTruncated, which implements the RFC 2181 rule of
// dropping whole RRSets and setting TC.
package dnswire

import "fmt"

// Type is a DNS resource record type (RFC 1035 §3.2.2 and successors).
type Type uint16

// Record types used throughout the reproduction.
const (
	TypeNone   Type = 0
	TypeA      Type = 1
	TypeNS     Type = 2
	TypeCNAME  Type = 5
	TypeSOA    Type = 6
	TypePTR    Type = 12
	TypeMX     Type = 15
	TypeTXT    Type = 16
	TypeAAAA   Type = 28
	TypeSRV    Type = 33
	TypeOPT    Type = 41
	TypeDS     Type = 43
	TypeRRSIG  Type = 46
	TypeNSEC   Type = 47
	TypeDNSKEY Type = 48
	TypeCAA    Type = 257
	TypeANY    Type = 255
)

var typeNames = map[Type]string{
	TypeA:      "A",
	TypeNS:     "NS",
	TypeCNAME:  "CNAME",
	TypeSOA:    "SOA",
	TypePTR:    "PTR",
	TypeMX:     "MX",
	TypeTXT:    "TXT",
	TypeAAAA:   "AAAA",
	TypeSRV:    "SRV",
	TypeOPT:    "OPT",
	TypeDS:     "DS",
	TypeRRSIG:  "RRSIG",
	TypeNSEC:   "NSEC",
	TypeDNSKEY: "DNSKEY",
	TypeCAA:    "CAA",
	TypeANY:    "ANY",
}

// String returns the mnemonic for t, or "TYPE<n>" for unknown types
// (RFC 3597 presentation style).
func (t Type) String() string {
	if s, ok := typeNames[t]; ok {
		return s
	}
	return fmt.Sprintf("TYPE%d", uint16(t))
}

// Class is a DNS class. Only IN is used on today's Internet.
type Class uint16

const (
	ClassIN  Class = 1
	ClassCH  Class = 3
	ClassANY Class = 255
)

// String returns the mnemonic for c.
func (c Class) String() string {
	switch c {
	case ClassIN:
		return "IN"
	case ClassCH:
		return "CH"
	case ClassANY:
		return "ANY"
	}
	return fmt.Sprintf("CLASS%d", uint16(c))
}

// RCode is a DNS response code. The paper defines "junk" traffic as any
// query whose response carries a non-NOERROR RCode.
type RCode uint16

const (
	RCodeNoError  RCode = 0
	RCodeFormErr  RCode = 1
	RCodeServFail RCode = 2
	RCodeNXDomain RCode = 3
	RCodeNotImp   RCode = 4
	RCodeRefused  RCode = 5
)

// String returns the mnemonic for rc.
func (rc RCode) String() string {
	switch rc {
	case RCodeNoError:
		return "NOERROR"
	case RCodeFormErr:
		return "FORMERR"
	case RCodeServFail:
		return "SERVFAIL"
	case RCodeNXDomain:
		return "NXDOMAIN"
	case RCodeNotImp:
		return "NOTIMP"
	case RCodeRefused:
		return "REFUSED"
	}
	return fmt.Sprintf("RCODE%d", uint16(rc))
}

// Opcode is the DNS operation code; queries use OpcodeQuery.
type Opcode uint8

const (
	OpcodeQuery  Opcode = 0
	OpcodeNotify Opcode = 4
	OpcodeUpdate Opcode = 5
)

// Header is the 12-byte fixed DNS message header (RFC 1035 §4.1.1) with the
// flag bits broken out. Section counts are derived from the Message slices
// at pack time and filled in at parse time.
type Header struct {
	ID                 uint16
	Response           bool   // QR
	Opcode             Opcode // 4 bits
	Authoritative      bool   // AA
	Truncated          bool   // TC
	RecursionDesired   bool   // RD
	RecursionAvailable bool   // RA
	AuthenticData      bool   // AD (RFC 4035)
	CheckingDisabled   bool   // CD (RFC 4035)
	RCode              RCode  // low 4 bits; extended bits live in the OPT RR
}

// Question is a single entry of the question section.
type Question struct {
	Name  string
	Type  Type
	Class Class
}

// String formats q in zone-file style.
func (q Question) String() string {
	return fmt.Sprintf("%s %s %s", q.Name, q.Class, q.Type)
}
