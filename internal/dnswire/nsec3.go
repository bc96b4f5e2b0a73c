package dnswire

import (
	"encoding/binary"
	"fmt"
	"strings"
)

// NSEC3 support (RFC 5155): the records of hashed authenticated denial of
// existence, the scheme production signed TLDs (including .nl) actually
// deploy. The codec reads and writes them as any other RDATA; the
// reproduction's authoritative engine itself denies with plain NSEC.

// TypeNSEC3 and TypeNSEC3PARAM are the RFC 5155 record types.
const (
	TypeNSEC3      Type = 50
	TypeNSEC3PARAM Type = 51
)

func init() {
	typeNames[TypeNSEC3] = "NSEC3"
	typeNames[TypeNSEC3PARAM] = "NSEC3PARAM"
}

// NSEC3Data is one NSEC3 record: the owner name's label is the base32hex
// hash; NextHashed is the successor hash in the chain.
type NSEC3Data struct {
	HashAlgo   uint8 // 1 = SHA-1
	Flags      uint8 // 1 = opt-out
	Iterations uint16
	Salt       []byte
	NextHashed []byte // 20 bytes for SHA-1
	Types      []Type
}

// Type implements RData.
func (NSEC3Data) Type() Type { return TypeNSEC3 }

func (d NSEC3Data) appendTo(b []byte, _ *nameCompressor) ([]byte, error) {
	if len(d.Salt) > 255 || len(d.NextHashed) > 255 {
		return b, fmt.Errorf("%w: NSEC3 salt/hash too long", ErrBadRData)
	}
	b = append(b, d.HashAlgo, d.Flags)
	b = binary.BigEndian.AppendUint16(b, d.Iterations)
	b = append(b, byte(len(d.Salt)))
	b = append(b, d.Salt...)
	b = append(b, byte(len(d.NextHashed)))
	b = append(b, d.NextHashed...)
	return appendTypeBitmap(b, d.Types)
}

// String implements RData.
func (d NSEC3Data) String() string {
	out := fmt.Sprintf("%d %d %d %s %s",
		d.HashAlgo, d.Flags, d.Iterations, saltString(d.Salt), Base32Hex(d.NextHashed))
	for _, t := range d.Types {
		out += " " + t.String()
	}
	return out
}

func saltString(salt []byte) string {
	if len(salt) == 0 {
		return "-"
	}
	return fmt.Sprintf("%X", salt)
}

// NSEC3PARAMData advertises the zone's NSEC3 parameters at the apex.
type NSEC3PARAMData struct {
	HashAlgo   uint8
	Flags      uint8
	Iterations uint16
	Salt       []byte
}

// Type implements RData.
func (NSEC3PARAMData) Type() Type { return TypeNSEC3PARAM }

func (d NSEC3PARAMData) appendTo(b []byte, _ *nameCompressor) ([]byte, error) {
	if len(d.Salt) > 255 {
		return b, fmt.Errorf("%w: NSEC3PARAM salt too long", ErrBadRData)
	}
	b = append(b, d.HashAlgo, d.Flags)
	b = binary.BigEndian.AppendUint16(b, d.Iterations)
	b = append(b, byte(len(d.Salt)))
	return append(b, d.Salt...), nil
}

// String implements RData.
func (d NSEC3PARAMData) String() string {
	return fmt.Sprintf("%d %d %d %s", d.HashAlgo, d.Flags, d.Iterations, saltString(d.Salt))
}

// parseNSEC3 decodes NSEC3 rdata.
func parseNSEC3(rd []byte) (RData, error) {
	if len(rd) < 5 {
		return nil, ErrTruncatedRData
	}
	d := NSEC3Data{
		HashAlgo:   rd[0],
		Flags:      rd[1],
		Iterations: binary.BigEndian.Uint16(rd[2:]),
	}
	saltLen := int(rd[4])
	if len(rd) < 5+saltLen+1 {
		return nil, ErrTruncatedRData
	}
	d.Salt = append([]byte(nil), rd[5:5+saltLen]...)
	off := 5 + saltLen
	hashLen := int(rd[off])
	off++
	if len(rd) < off+hashLen {
		return nil, ErrTruncatedRData
	}
	d.NextHashed = append([]byte(nil), rd[off:off+hashLen]...)
	types, err := parseTypeBitmap(rd[off+hashLen:])
	if err != nil {
		return nil, err
	}
	d.Types = types
	return d, nil
}

// parseNSEC3PARAM decodes NSEC3PARAM rdata.
func parseNSEC3PARAM(rd []byte) (RData, error) {
	if len(rd) < 5 {
		return nil, ErrTruncatedRData
	}
	saltLen := int(rd[4])
	if len(rd) < 5+saltLen {
		return nil, ErrTruncatedRData
	}
	return NSEC3PARAMData{
		HashAlgo:   rd[0],
		Flags:      rd[1],
		Iterations: binary.BigEndian.Uint16(rd[2:]),
		Salt:       append([]byte(nil), rd[5:5+saltLen]...),
	}, nil
}

// Base32Hex encodes with the RFC 4648 extended-hex alphabet (no padding),
// as NSEC3 owner labels require.
func Base32Hex(b []byte) string {
	const alphabet = "0123456789abcdefghijklmnopqrstuv"
	var sb strings.Builder
	var acc uint32
	bits := 0
	for _, x := range b {
		acc = acc<<8 | uint32(x)
		bits += 8
		for bits >= 5 {
			bits -= 5
			sb.WriteByte(alphabet[acc>>uint(bits)&0x1F])
		}
	}
	if bits > 0 {
		sb.WriteByte(alphabet[acc<<uint(5-bits)&0x1F])
	}
	return sb.String()
}
