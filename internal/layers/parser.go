package layers

import (
	"fmt"
	"net/netip"
)

// Parser decodes an Ethernet/IP/UDP-or-TCP stack into preallocated layer
// structs, gopacket DecodingLayerParser style: one Parser is reused across
// packets and Decode performs no per-packet heap allocation.
type Parser struct {
	Eth Ethernet
	IP4 IPv4
	IP6 IPv6
	UDP UDP
	TCP TCP
	// Decoded lists the layers found, in order, after a successful Decode.
	Decoded []LayerType
	// Payload is the innermost payload (L4 payload) after Decode.
	Payload []byte
}

// NewParser returns a ready Parser.
func NewParser() *Parser {
	return &Parser{Decoded: make([]LayerType, 0, 4)}
}

// Flow summarizes the addressing of a decoded packet.
type Flow struct {
	Src, Dst         netip.Addr
	SrcPort, DstPort uint16
	Proto            uint8 // IPProtoUDP or IPProtoTCP
}

// String renders the flow as "src:sp > dst:dp/proto".
func (f Flow) String() string {
	proto := "udp"
	if f.Proto == IPProtoTCP {
		proto = "tcp"
	}
	return fmt.Sprintf("%s > %s/%s",
		netip.AddrPortFrom(f.Src, f.SrcPort), netip.AddrPortFrom(f.Dst, f.DstPort), proto)
}

// IsIPv6 reports whether the flow's network layer is IPv6.
func (f Flow) IsIPv6() bool { return f.Src.Is6() && !f.Src.Is4In6() }

// Decode parses one Ethernet frame. It returns the flow and fills
// p.Decoded and p.Payload. Unknown ethertypes or IP protocols yield an
// error identifying the layer reached.
func (p *Parser) Decode(frame []byte) (Flow, error) {
	p.Decoded = p.Decoded[:0]
	p.Payload = nil
	var flow Flow

	rest, err := p.Eth.DecodeFromBytes(frame)
	if err != nil {
		return flow, err
	}
	p.Decoded = append(p.Decoded, LayerTypeEthernet)

	var proto uint8
	switch p.Eth.EtherType {
	case EtherTypeIPv4:
		if rest, err = p.IP4.DecodeFromBytes(rest); err != nil {
			return flow, err
		}
		p.Decoded = append(p.Decoded, LayerTypeIPv4)
		flow.Src, flow.Dst = p.IP4.Src, p.IP4.Dst
		proto = p.IP4.Protocol
	case EtherTypeIPv6:
		if rest, err = p.IP6.DecodeFromBytes(rest); err != nil {
			return flow, err
		}
		p.Decoded = append(p.Decoded, LayerTypeIPv6)
		flow.Src, flow.Dst = p.IP6.Src, p.IP6.Dst
		proto = p.IP6.NextHeader
	default:
		return flow, fmt.Errorf("layers: unsupported ethertype 0x%04x", p.Eth.EtherType)
	}

	switch proto {
	case IPProtoUDP:
		if rest, err = p.UDP.DecodeFromBytes(rest); err != nil {
			return flow, err
		}
		p.Decoded = append(p.Decoded, LayerTypeUDP)
		flow.SrcPort, flow.DstPort, flow.Proto = p.UDP.SrcPort, p.UDP.DstPort, IPProtoUDP
	case IPProtoTCP:
		if rest, err = p.TCP.DecodeFromBytes(rest); err != nil {
			return flow, err
		}
		p.Decoded = append(p.Decoded, LayerTypeTCP)
		flow.SrcPort, flow.DstPort, flow.Proto = p.TCP.SrcPort, p.TCP.DstPort, IPProtoTCP
	default:
		return flow, fmt.Errorf("layers: unsupported IP protocol %d", proto)
	}
	p.Payload = rest
	p.Decoded = append(p.Decoded, LayerTypePayload)
	return flow, nil
}

// defaultMACs used by the frame builders; the analysis never looks at L2
// addresses, but frames must still be well-formed.
var (
	builderSrcMAC = MAC{0x02, 0x00, 0x00, 0x00, 0x00, 0x01}
	builderDstMAC = MAC{0x02, 0x00, 0x00, 0x00, 0x00, 0x02}
)

// BuildUDP builds a complete Ethernet/IPvX/UDP frame carrying payload
// from src to dst. The IP version is chosen from the address family.
func BuildUDP(src, dst netip.AddrPort, payload []byte) ([]byte, error) {
	return AppendUDP(make([]byte, 0, EthernetHeaderLen+IPv6HeaderLen+UDPHeaderLen+len(payload)), src, dst, payload)
}

// AppendUDP appends a complete Ethernet/IPvX/UDP frame to b, producing the
// same bytes as BuildUDP with no intermediate allocation — the zero-copy
// variant for hot loops appending into a reused arena.
func AppendUDP(b []byte, src, dst netip.AddrPort, payload []byte) ([]byte, error) {
	b, srcA, dstA, err := appendFramePrefix(b, src, dst, IPProtoUDP, UDPHeaderLen+len(payload))
	if err != nil {
		return nil, err
	}
	u := UDP{SrcPort: src.Port(), DstPort: dst.Port()}
	return u.AppendSegment(b, srcA, dstA, payload)
}

// TCPMeta carries the TCP header fields a builder caller controls.
type TCPMeta struct {
	Seq, Ack uint32
	Flags    uint8
	Window   uint16
}

// BuildTCP builds a complete Ethernet/IPvX/TCP frame.
func BuildTCP(src, dst netip.AddrPort, meta TCPMeta, payload []byte) ([]byte, error) {
	return AppendTCP(make([]byte, 0, EthernetHeaderLen+IPv6HeaderLen+TCPHeaderLen+len(payload)), src, dst, meta, payload)
}

// AppendTCP appends a complete Ethernet/IPvX/TCP frame to b; see AppendUDP.
func AppendTCP(b []byte, src, dst netip.AddrPort, meta TCPMeta, payload []byte) ([]byte, error) {
	b, srcA, dstA, err := appendFramePrefix(b, src, dst, IPProtoTCP, TCPHeaderLen+len(payload))
	if err != nil {
		return nil, err
	}
	t := TCP{
		SrcPort: src.Port(), DstPort: dst.Port(),
		Seq: meta.Seq, Ack: meta.Ack, Flags: meta.Flags, Window: meta.Window,
	}
	if t.Window == 0 {
		t.Window = 65535
	}
	return t.AppendSegment(b, srcA, dstA, payload)
}

// appendFramePrefix appends the Ethernet and IP headers for an L4 segment
// of l4len bytes and returns the unmapped addresses for the L4 checksum.
func appendFramePrefix(b []byte, src, dst netip.AddrPort, proto uint8, l4len int) ([]byte, netip.Addr, netip.Addr, error) {
	srcA, dstA := src.Addr().Unmap(), dst.Addr().Unmap()
	v6 := srcA.Is6()
	if v6 != (dstA.Is6()) {
		return nil, srcA, dstA, fmt.Errorf("layers: address family mismatch %s -> %s", srcA, dstA)
	}
	eth := Ethernet{Dst: builderDstMAC, Src: builderSrcMAC}
	var err error
	if v6 {
		eth.EtherType = EtherTypeIPv6
		b = eth.AppendHeader(b)
		ip := IPv6{NextHeader: proto, HopLimit: 58, Src: srcA, Dst: dstA}
		b, err = ip.AppendHeader(b, l4len)
	} else {
		eth.EtherType = EtherTypeIPv4
		b = eth.AppendHeader(b)
		ip := IPv4{TTL: 58, Protocol: proto, Src: srcA, Dst: dstA}
		b, err = ip.AppendHeader(b, l4len)
	}
	if err != nil {
		return nil, srcA, dstA, err
	}
	return b, srcA, dstA, nil
}
