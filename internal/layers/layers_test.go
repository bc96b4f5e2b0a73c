package layers

import (
	"bytes"
	"math/rand"
	"net/netip"
	"testing"
	"testing/quick"
)

var (
	v4a = netip.MustParseAddrPort("192.0.2.10:53000")
	v4b = netip.MustParseAddrPort("198.51.100.53:53")
	v6a = netip.MustParseAddrPort("[2001:db8::10]:53000")
	v6b = netip.MustParseAddrPort("[2001:db8:ff::53]:53")
)

func TestBuildAndParseUDPv4(t *testing.T) {
	payload := []byte("dns-query-bytes")
	frame, err := BuildUDP(v4a, v4b, payload)
	if err != nil {
		t.Fatal(err)
	}
	p := NewParser()
	flow, err := p.Decode(frame)
	if err != nil {
		t.Fatal(err)
	}
	if flow.Src != v4a.Addr() || flow.Dst != v4b.Addr() ||
		flow.SrcPort != 53000 || flow.DstPort != 53 || flow.Proto != IPProtoUDP {
		t.Errorf("flow = %+v", flow)
	}
	if flow.IsIPv6() {
		t.Error("v4 flow reported as v6")
	}
	if !bytes.Equal(p.Payload, payload) {
		t.Errorf("payload = %q", p.Payload)
	}
	want := []LayerType{LayerTypeEthernet, LayerTypeIPv4, LayerTypeUDP, LayerTypePayload}
	if len(p.Decoded) != len(want) {
		t.Fatalf("decoded = %v", p.Decoded)
	}
	for i := range want {
		if p.Decoded[i] != want[i] {
			t.Errorf("decoded[%d] = %v, want %v", i, p.Decoded[i], want[i])
		}
	}
}

func TestBuildAndParseUDPv6(t *testing.T) {
	payload := []byte("v6-payload")
	frame, err := BuildUDP(v6a, v6b, payload)
	if err != nil {
		t.Fatal(err)
	}
	p := NewParser()
	flow, err := p.Decode(frame)
	if err != nil {
		t.Fatal(err)
	}
	if !flow.IsIPv6() {
		t.Error("v6 flow not detected")
	}
	if flow.Src != v6a.Addr() || flow.DstPort != 53 {
		t.Errorf("flow = %+v", flow)
	}
	if !bytes.Equal(p.Payload, payload) {
		t.Errorf("payload = %q", p.Payload)
	}
}

func TestBuildAndParseTCP(t *testing.T) {
	meta := TCPMeta{Seq: 1000, Ack: 2000, Flags: TCPFlagSYN | TCPFlagACK}
	frame, err := BuildTCP(v4b, v4a, meta, nil)
	if err != nil {
		t.Fatal(err)
	}
	p := NewParser()
	flow, err := p.Decode(frame)
	if err != nil {
		t.Fatal(err)
	}
	if flow.Proto != IPProtoTCP || flow.SrcPort != 53 {
		t.Errorf("flow = %+v", flow)
	}
	if !p.TCP.SYN() || !p.TCP.ACK() || p.TCP.FIN() || p.TCP.RST() {
		t.Errorf("flags = %08b", p.TCP.Flags)
	}
	if p.TCP.Seq != 1000 || p.TCP.Ack != 2000 {
		t.Errorf("seq/ack = %d/%d", p.TCP.Seq, p.TCP.Ack)
	}
}

func TestUDPChecksumValid(t *testing.T) {
	frame, err := BuildUDP(v4a, v4b, []byte("check me"))
	if err != nil {
		t.Fatal(err)
	}
	var eth Ethernet
	rest, _ := eth.DecodeFromBytes(frame)
	var ip IPv4
	seg, err := ip.DecodeFromBytes(rest)
	if err != nil {
		t.Fatal(err)
	}
	if !verifyUDPChecksum(ip.Src, ip.Dst, seg) {
		t.Error("UDP checksum does not verify")
	}
	// Corrupt a payload byte: checksum must fail.
	seg2 := append([]byte(nil), seg...)
	seg2[len(seg2)-1] ^= 0xFF
	if verifyUDPChecksum(ip.Src, ip.Dst, seg2) {
		t.Error("corrupted segment passed checksum")
	}
}

func TestTCPChecksumValid(t *testing.T) {
	frame, err := BuildTCP(v6a, v6b, TCPMeta{Flags: TCPFlagPSH | TCPFlagACK}, []byte("data"))
	if err != nil {
		t.Fatal(err)
	}
	var eth Ethernet
	rest, _ := eth.DecodeFromBytes(frame)
	var ip IPv6
	seg, err := ip.DecodeFromBytes(rest)
	if err != nil {
		t.Fatal(err)
	}
	if !verifyTCPChecksum(ip.Src, ip.Dst, seg) {
		t.Error("TCP checksum does not verify")
	}
	seg2 := append([]byte(nil), seg...)
	seg2[len(seg2)-2] ^= 0x01
	if verifyTCPChecksum(ip.Src, ip.Dst, seg2) {
		t.Error("corrupted segment passed checksum")
	}
}

func TestIPv4ChecksumSelfConsistent(t *testing.T) {
	ip := IPv4{TTL: 64, Protocol: IPProtoUDP,
		Src: netip.MustParseAddr("10.0.0.1"), Dst: netip.MustParseAddr("10.0.0.2")}
	hdr, err := ip.AppendHeader(nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	// Checksumming a header including its own checksum must give 0 (i.e.
	// onesComplementChecksum returns ^0 complement == 0).
	if got := onesComplementChecksum(hdr, 0); got != 0 {
		t.Errorf("header checksum residue = %#x", got)
	}
}

func TestFamilyMismatchRejected(t *testing.T) {
	if _, err := BuildUDP(v4a, v6b, nil); err == nil {
		t.Error("mixed-family frame accepted")
	}
}

func TestDecodeShortBuffers(t *testing.T) {
	p := NewParser()
	for n := 0; n < 60; n += 7 {
		frame, _ := BuildUDP(v4a, v4b, []byte("payload-of-some-length"))
		if n >= len(frame) {
			break
		}
		if _, err := p.Decode(frame[:n]); err == nil {
			t.Errorf("truncated frame of %d bytes accepted", n)
		}
	}
}

func TestDecodeUnknownEtherType(t *testing.T) {
	eth := Ethernet{EtherType: 0x0806} // ARP
	frame := eth.AppendHeader(nil)
	frame = append(frame, make([]byte, 28)...)
	p := NewParser()
	if _, err := p.Decode(frame); err == nil {
		t.Error("ARP frame accepted")
	}
}

func TestDecodeUnknownIPProto(t *testing.T) {
	ip := IPv4{TTL: 1, Protocol: 1, // ICMP
		Src: netip.MustParseAddr("10.0.0.1"), Dst: netip.MustParseAddr("10.0.0.2")}
	eth := Ethernet{EtherType: EtherTypeIPv4}
	frame := eth.AppendHeader(nil)
	frame, err := ip.AppendHeader(frame, 8)
	if err != nil {
		t.Fatal(err)
	}
	frame = append(frame, make([]byte, 8)...)
	p := NewParser()
	if _, err := p.Decode(frame); err == nil {
		t.Error("ICMP packet accepted")
	}
}

func TestIPv4StripsLinkPadding(t *testing.T) {
	frame, err := BuildUDP(v4a, v4b, []byte("x"))
	if err != nil {
		t.Fatal(err)
	}
	// Simulate Ethernet minimum-size padding after the IP datagram.
	frame = append(frame, make([]byte, 18)...)
	p := NewParser()
	if _, err := p.Decode(frame); err != nil {
		t.Fatalf("padded frame rejected: %v", err)
	}
	if !bytes.Equal(p.Payload, []byte("x")) {
		t.Errorf("payload = %q", p.Payload)
	}
}

func TestMACString(t *testing.T) {
	m := MAC{0x02, 0x42, 0xAC, 0x11, 0x00, 0x02}
	if m.String() != "02:42:ac:11:00:02" {
		t.Errorf("MAC string = %s", m)
	}
}

func TestLayerTypeString(t *testing.T) {
	if LayerTypeUDP.String() != "UDP" || LayerTypeNone.String() != "None" {
		t.Error("layer type names wrong")
	}
}

func randomAddrPort(r *rand.Rand, v6 bool) netip.AddrPort {
	var a netip.Addr
	if v6 {
		var b [16]byte
		b[0], b[1] = 0x20, 0x01
		for i := 2; i < 16; i++ {
			b[i] = byte(r.Intn(256))
		}
		a = netip.AddrFrom16(b)
	} else {
		a = netip.AddrFrom4([4]byte{byte(1 + r.Intn(223)), byte(r.Intn(256)), byte(r.Intn(256)), byte(1 + r.Intn(254))})
	}
	return netip.AddrPortFrom(a, uint16(1+r.Intn(65535)))
}

func TestPropertyUDPRoundTrip(t *testing.T) {
	cfg := &quick.Config{MaxCount: 400, Rand: rand.New(rand.NewSource(1))}
	p := NewParser()
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		v6 := r.Intn(2) == 0
		src, dst := randomAddrPort(r, v6), randomAddrPort(r, v6)
		payload := make([]byte, r.Intn(1200))
		r.Read(payload)
		frame, err := BuildUDP(src, dst, payload)
		if err != nil {
			return false
		}
		flow, err := p.Decode(frame)
		if err != nil {
			return false
		}
		return flow.Src == src.Addr() && flow.Dst == dst.Addr() &&
			flow.SrcPort == src.Port() && flow.DstPort == dst.Port() &&
			bytes.Equal(p.Payload, payload)
	}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

func TestPropertyTCPChecksumAlwaysVerifies(t *testing.T) {
	cfg := &quick.Config{MaxCount: 300, Rand: rand.New(rand.NewSource(1))}
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		v6 := r.Intn(2) == 0
		src, dst := randomAddrPort(r, v6), randomAddrPort(r, v6)
		payload := make([]byte, r.Intn(600))
		r.Read(payload)
		frame, err := BuildTCP(src, dst, TCPMeta{Seq: r.Uint32(), Ack: r.Uint32(), Flags: TCPFlagACK}, payload)
		if err != nil {
			return false
		}
		var eth Ethernet
		rest, err := eth.DecodeFromBytes(frame)
		if err != nil {
			return false
		}
		if v6 {
			var ip IPv6
			seg, err := ip.DecodeFromBytes(rest)
			return err == nil && verifyTCPChecksum(ip.Src, ip.Dst, seg)
		}
		var ip IPv4
		seg, err := ip.DecodeFromBytes(rest)
		return err == nil && verifyTCPChecksum(ip.Src, ip.Dst, seg)
	}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

func TestPropertyDecodeNeverPanics(t *testing.T) {
	cfg := &quick.Config{MaxCount: 2000, Rand: rand.New(rand.NewSource(1))}
	p := NewParser()
	f := func(data []byte) bool {
		_, _ = p.Decode(data)
		return true
	}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

func BenchmarkParserDecodeUDP(b *testing.B) {
	frame, err := BuildUDP(v4a, v4b, make([]byte, 64))
	if err != nil {
		b.Fatal(err)
	}
	p := NewParser()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := p.Decode(frame); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkBuildUDPFrame(b *testing.B) {
	payload := make([]byte, 64)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := BuildUDP(v4a, v4b, payload); err != nil {
			b.Fatal(err)
		}
	}
}
