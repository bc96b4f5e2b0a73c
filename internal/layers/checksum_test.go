package layers

import (
	"encoding/binary"
	"net/netip"
)

// The checksum oracles: the tests and FuzzChecksumVerification recompute
// each generated segment's checksum the way a receiving stack would.

// verifyUDPChecksum recomputes the checksum of a decoded UDP segment (its
// header already holding the stored checksum) against the pseudo-header.
func verifyUDPChecksum(src, dst netip.Addr, segment []byte) bool {
	if len(segment) < UDPHeaderLen {
		return false
	}
	stored := binary.BigEndian.Uint16(segment[6:])
	if stored == 0 {
		return true // sender did not compute one (IPv4 only, but accept)
	}
	sum := onesComplementChecksum(segment, pseudoHeaderSum(src, dst, IPProtoUDP, len(segment)))
	return sum == 0
}

// verifyTCPChecksum recomputes the checksum of a decoded TCP segment.
func verifyTCPChecksum(src, dst netip.Addr, segment []byte) bool {
	if len(segment) < TCPHeaderLen {
		return false
	}
	sum := onesComplementChecksum(segment, pseudoHeaderSum(src, dst, IPProtoTCP, len(segment)))
	return sum == 0
}
