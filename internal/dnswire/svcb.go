package dnswire

import (
	"encoding/binary"
	"fmt"
	"sort"
	"strings"
)

// SVCB and HTTPS records (RFC 9460): service-binding lookups became a
// large share of real resolver traffic during and after the study period
// (Apple clients began querying HTTPS in 2020), so a pipeline meant to
// ingest modern captures must decode them.

// TypeSVCB and TypeHTTPS are the RFC 9460 record types.
const (
	TypeSVCB  Type = 64
	TypeHTTPS Type = 65
)

func init() {
	typeNames[TypeSVCB] = "SVCB"
	typeNames[TypeHTTPS] = "HTTPS"
}

// SVCBData is the shared wire form of SVCB and HTTPS records. Service
// parameters are kept as raw key/value pairs; the codec preserves them
// byte-exactly and enforces the RFC's strictly-increasing key order.
type SVCBData struct {
	// RRType distinguishes SVCB from HTTPS (same wire format).
	RRType Type
	// Priority 0 means AliasMode; >0 is ServiceMode.
	Priority uint16
	// TargetName is the service endpoint ("." = owner itself).
	TargetName string
	// Params are the SvcParams in ascending key order.
	Params []SvcParam
}

// SvcParam is one raw service parameter.
type SvcParam struct {
	Key   uint16
	Value []byte
}

// Type implements RData.
func (d SVCBData) Type() Type {
	if d.RRType == TypeHTTPS {
		return TypeHTTPS
	}
	return TypeSVCB
}

func (d SVCBData) appendTo(b []byte, _ *nameCompressor) ([]byte, error) {
	b = binary.BigEndian.AppendUint16(b, d.Priority)
	var err error
	if b, err = appendName(b, d.TargetName, nil); err != nil {
		return b, err
	}
	if !sort.SliceIsSorted(d.Params, func(i, j int) bool { return d.Params[i].Key < d.Params[j].Key }) {
		return b, fmt.Errorf("%w: SvcParams must be in ascending key order", ErrBadRData)
	}
	for i, p := range d.Params {
		if i > 0 && p.Key == d.Params[i-1].Key {
			return b, fmt.Errorf("%w: duplicate SvcParam key %d", ErrBadRData, p.Key)
		}
		if len(p.Value) > 0xFFFF {
			return b, fmt.Errorf("%w: SvcParam value too long", ErrBadRData)
		}
		b = binary.BigEndian.AppendUint16(b, p.Key)
		b = binary.BigEndian.AppendUint16(b, uint16(len(p.Value)))
		b = append(b, p.Value...)
	}
	return b, nil
}

// String implements RData.
func (d SVCBData) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%d %s", d.Priority, CanonicalName(d.TargetName))
	for _, p := range d.Params {
		fmt.Fprintf(&sb, " key%d=%X", p.Key, p.Value)
	}
	return sb.String()
}

// parseSVCB decodes SVCB/HTTPS rdata.
func parseSVCB(typ Type, msg []byte, off, rdlen int) (RData, error) {
	if rdlen < 3 {
		return nil, ErrTruncatedRData
	}
	d := SVCBData{RRType: typ, Priority: binary.BigEndian.Uint16(msg[off:])}
	target, next, err := readName(msg, off+2)
	if err != nil {
		return nil, err
	}
	d.TargetName = target
	end := off + rdlen
	lastKey := -1
	for next < end {
		if next+4 > end {
			return nil, ErrTruncatedRData
		}
		key := binary.BigEndian.Uint16(msg[next:])
		vlen := int(binary.BigEndian.Uint16(msg[next+2:]))
		next += 4
		if next+vlen > end {
			return nil, ErrTruncatedRData
		}
		if int(key) <= lastKey {
			return nil, fmt.Errorf("%w: SvcParam keys out of order", ErrBadRData)
		}
		lastKey = int(key)
		d.Params = append(d.Params, SvcParam{
			Key:   key,
			Value: append([]byte(nil), msg[next:next+vlen]...),
		})
		next += vlen
	}
	return d, nil
}
