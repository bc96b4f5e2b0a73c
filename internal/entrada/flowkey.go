package entrada

import "encoding/binary"

// Flow-key extraction for sharded ingestion: internal/pipeline hashes each
// captured frame's 5-tuple to pick the shard whose Analyzer will consume
// it. The hash is direction-insensitive — a query and its response (and
// every segment of a TCP connection, in both directions) map to the same
// shard — so query/response joining and TCP reassembly remain shard-local
// and the merged shard results equal a single-Analyzer run.
//
// The extractor reads only the fixed header fields it needs (no payload
// parsing, no allocation); frames it cannot parse fall back to shard 0,
// where the Analyzer's decoder counts them as malformed exactly as a
// single Analyzer would.

// fnvOffset/fnvPrime are the FNV-1a 64-bit parameters.
const (
	fnvOffset uint64 = 0xcbf29ce484222325
	fnvPrime  uint64 = 0x100000001b3
)

// FlowKey returns a 64-bit hash of the frame's (src, dst, sport, dport,
// proto) 5-tuple, identical for both directions of the flow. ok is false
// when the frame is not parseable Ethernet/IPv4-or-IPv6/UDP-or-TCP.
func FlowKey(frame []byte) (key uint64, ok bool) {
	const ethHeaderLen = 14
	if len(frame) < ethHeaderLen {
		return 0, false
	}
	etherType := binary.BigEndian.Uint16(frame[12:14])
	b := frame[ethHeaderLen:]

	var src, dst []byte
	var proto byte
	switch etherType {
	case 0x0800: // IPv4
		if len(b) < 20 || b[0]>>4 != 4 {
			return 0, false
		}
		ihl := int(b[0]&0x0F) * 4
		if ihl < 20 || len(b) < ihl+4 {
			return 0, false
		}
		proto = b[9]
		src, dst = b[12:16], b[16:20]
		b = b[ihl:]
	case 0x86DD: // IPv6
		if len(b) < 44 || b[0]>>4 != 6 { // fixed header + L4 ports
			return 0, false
		}
		proto = b[6]
		src, dst = b[8:24], b[24:40]
		b = b[40:]
	default:
		return 0, false
	}
	if proto != 6 && proto != 17 { // TCP, UDP: the only L4s with ports
		return 0, false
	}
	srcPort := binary.BigEndian.Uint16(b[0:2])
	dstPort := binary.BigEndian.Uint16(b[2:4])

	// Hash each endpoint independently, then combine the ordered pair so
	// both directions produce the same key (sorting avoids the collision
	// structure a plain XOR would introduce).
	ha := endpointHash(src, srcPort)
	hb := endpointHash(dst, dstPort)
	if hb < ha {
		ha, hb = hb, ha
	}
	h := fnvOffset
	h = fnvMix64(h, ha)
	h = fnvMix64(h, hb)
	h = (h ^ uint64(proto)) * fnvPrime
	return h, true
}

// FlowShard maps a frame to one of shards buckets via FlowKey; frames
// without a parseable flow go to shard 0.
func FlowShard(frame []byte, shards int) int {
	if shards <= 1 {
		return 0
	}
	key, ok := FlowKey(frame)
	if !ok {
		return 0
	}
	return int(key % uint64(shards))
}

// endpointHash hashes one (address, port) endpoint with FNV-1a.
func endpointHash(addr []byte, port uint16) uint64 {
	h := fnvOffset
	for _, c := range addr {
		h = (h ^ uint64(c)) * fnvPrime
	}
	h = (h ^ uint64(port>>8)) * fnvPrime
	h = (h ^ uint64(port&0xFF)) * fnvPrime
	return h
}

// fnvMix64 folds one 64-bit value into an FNV-1a state byte by byte.
func fnvMix64(h, v uint64) uint64 {
	for i := 0; i < 8; i++ {
		h = (h ^ (v & 0xFF)) * fnvPrime
		v >>= 8
	}
	return h
}
