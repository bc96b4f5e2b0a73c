package layers

import (
	"bytes"
	"testing"
)

// FuzzParserDecode checks the layer parser never panics and that the
// payload it returns is in-bounds.
func FuzzParserDecode(f *testing.F) {
	u, _ := BuildUDP(v4a, v4b, []byte("payload"))
	f.Add(u)
	tc, _ := BuildTCP(v6a, v6b, TCPMeta{Flags: TCPFlagSYN}, nil)
	f.Add(tc)
	f.Add([]byte{})
	f.Add(bytes.Repeat([]byte{0x45}, 64))

	p := NewParser()
	f.Fuzz(func(t *testing.T, data []byte) {
		flow, err := p.Decode(data)
		if err != nil {
			return
		}
		if !flow.Src.IsValid() || !flow.Dst.IsValid() {
			t.Fatal("decoded flow has invalid addresses")
		}
		if len(p.Payload) > len(data) {
			t.Fatal("payload longer than frame")
		}
	})
}

// FuzzChecksumVerification checks that verification never panics and that
// freshly built frames always verify.
func FuzzChecksumVerification(f *testing.F) {
	f.Add([]byte("some payload"), true)
	f.Add([]byte{}, false)
	p := NewParser()
	f.Fuzz(func(t *testing.T, payload []byte, v6 bool) {
		if len(payload) > 1200 {
			return
		}
		src, dst := v4a, v4b
		if v6 {
			src, dst = v6a, v6b
		}
		frame, err := BuildUDP(src, dst, payload)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := p.Decode(frame); err != nil {
			t.Fatal(err)
		}
		var eth Ethernet
		rest, _ := eth.DecodeFromBytes(frame)
		if v6 {
			var ip IPv6
			seg, err := ip.DecodeFromBytes(rest)
			if err != nil || !verifyUDPChecksum(ip.Src, ip.Dst, seg) {
				t.Fatalf("v6 checksum: %v", err)
			}
		} else {
			var ip IPv4
			seg, err := ip.DecodeFromBytes(rest)
			if err != nil || !verifyUDPChecksum(ip.Src, ip.Dst, seg) {
				t.Fatalf("v4 checksum: %v", err)
			}
		}
	})
}
