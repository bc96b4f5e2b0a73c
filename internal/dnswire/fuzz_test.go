package dnswire

import (
	"net/netip"
	"testing"
)

// FuzzUnpack checks that no input can panic the message parser, and that
// anything it accepts round-trips through Pack → Unpack.
func FuzzUnpack(f *testing.F) {
	seed := func(m *Message) {
		b, err := m.Pack()
		if err == nil {
			f.Add(b)
		}
	}
	seed(NewQuery(1, "example.nl.", TypeA))
	seed(NewQuery(2, "x.y.z.nz.", TypeNS).WithEdns(1232, true))
	r := sampleResponse()
	seed(r)
	f.Add([]byte{})
	f.Add([]byte{0, 0, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0xC0, 0x0C, 0, 1, 0, 1})

	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := Unpack(data)
		if err != nil {
			return
		}
		b, err := m.Pack()
		if err != nil {
			// Parsed messages may contain structures we refuse to emit
			// (e.g. oversized names reconstructed through pointers).
			return
		}
		if _, err := Unpack(b); err != nil {
			t.Fatalf("repacked message does not parse: %v", err)
		}
	})
}

// FuzzViewParity is the contract the lazy fast path rests on: for every
// input, View (Reset + Validate + accessors) must agree with the full
// Unpack parser — both accept or both reject, and on acceptance every
// field the analyzer consumes must match. A divergence here means the
// analyzer's View decoder could classify a packet differently from the
// full parser and produce different Aggregates.
func FuzzViewParity(f *testing.F) {
	seed := func(m *Message) {
		b, err := m.Pack()
		if err == nil {
			f.Add(b)
		}
	}
	seed(NewQuery(1, "example.nl.", TypeA))
	seed(NewQuery(2, "x.y.z.nz.", TypeNS).WithEdns(1232, true))
	seed(sampleResponse())
	rich := sampleResponse().WithEdns(4096, true)
	rich.Header.RCode = RCodeNXDomain
	rich.Edns.ExtRCode = 1 // BADVERS-style extended rcode
	rich.Authority = append(rich.Authority,
		RR{Name: "example.nl.", Class: ClassIN, TTL: 300, Data: SOAData{
			MName: "ns1.example.nl.", RName: "hostmaster.example.nl.",
			Serial: 7, Refresh: 3600, Retry: 600, Expire: 86400, Minimum: 300}},
		RR{Name: "example.nl.", Class: ClassIN, TTL: 300, Data: NSECData{
			NextName: "a.example.nl.", Types: []Type{TypeA, TypeNSEC}}},
		RR{Name: "example.nl.", Class: ClassIN, TTL: 300, Data: RRSIGData{
			TypeCovered: TypeSOA, Algorithm: 8, Labels: 2, OriginalTTL: 300,
			Expiration: 2, Inception: 1, KeyTag: 9,
			SignerName: "example.nl.", Signature: []byte{1, 2, 3}}},
	)
	rich.Additional = append(rich.Additional,
		RR{Name: "svc.example.nl.", Class: ClassIN, TTL: 60, Data: SVCBData{
			RRType: TypeHTTPS, Priority: 1, TargetName: ".",
			Params: []SvcParam{{Key: SvcParamALPN, Value: []byte("h2")}}}},
	)
	seed(rich)
	// Regression seeds for the NSEC/RRSIG rdata bounds panics: an owner
	// or signer name that keeps decoding past the declared RDLENGTH.
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1,
		0, 0, 47, 0, 1, 0, 0, 0, 0, 0, 1, 1, 'a', 0})
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1,
		0, 0, 46, 0, 1, 0, 0, 0, 0, 0, 19,
		0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 'a', 0})
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		m, uerr := Unpack(data)
		var v View
		verr := v.Reset(data)
		if verr == nil {
			verr = v.Validate()
		}
		if (uerr == nil) != (verr == nil) {
			t.Fatalf("accept/reject divergence: Unpack err=%v, View err=%v", uerr, verr)
		}
		if uerr != nil {
			return
		}
		h := m.Header
		if v.ID() != h.ID || v.Response() != h.Response || v.Opcode() != h.Opcode ||
			v.Truncated() != h.Truncated {
			t.Fatalf("header flag divergence: view vs %+v", h)
		}
		full, err := v.FullRCode()
		if err != nil || full != h.RCode {
			t.Fatalf("FullRCode = %v, %v; Unpack header RCode = %v", full, err, h.RCode)
		}
		if int(v.QDCount()) != len(m.Questions) || int(v.ANCount()) != len(m.Answers) ||
			int(v.NSCount()) != len(m.Authority) {
			t.Fatalf("count divergence: %d/%d/%d vs %d/%d/%d",
				v.QDCount(), v.ANCount(), v.NSCount(),
				len(m.Questions), len(m.Answers), len(m.Authority))
		}
		name, qtype, qclass, qerr := v.Question(nil)
		if len(m.Questions) == 0 {
			if qerr != ErrNoQuestion {
				t.Fatalf("Question on empty section: err=%v", qerr)
			}
		} else {
			q := m.Questions[0]
			if qerr != nil || string(name) != q.Name || qtype != q.Type || qclass != q.Class {
				t.Fatalf("question divergence: %q/%v/%v err=%v vs %+v", name, qtype, qclass, qerr, q)
			}
		}
		info, ok, eerr := v.EDNS()
		if eerr != nil || ok != (m.Edns != nil) {
			t.Fatalf("EDNS presence divergence: ok=%v err=%v vs Edns=%v", ok, eerr, m.Edns)
		}
		if ok && (info.UDPSize != m.Edns.UDPSize || info.ExtRCode != m.Edns.ExtRCode ||
			info.Version != m.Edns.Version || info.DO != m.Edns.DO) {
			t.Fatalf("EDNS field divergence: %+v vs %+v", info, m.Edns)
		}
	})
}

// FuzzReadName checks the name decompressor against panics and
// non-termination on arbitrary inputs and offsets.
func FuzzReadName(f *testing.F) {
	b, _ := appendName(nil, "www.example.nl.", nil)
	f.Add(b, 0)
	f.Add([]byte{0xC0, 0x00}, 0)
	f.Add([]byte{1, 'a', 0xC0, 0x00}, 2)
	f.Fuzz(func(t *testing.T, data []byte, off int) {
		if off < 0 || off > len(data) {
			return
		}
		name, n, err := readName(data, off)
		if err != nil {
			return
		}
		if n < off || n > len(data) {
			t.Fatalf("consumed offset %d out of bounds", n)
		}
		if err := ValidateName(name); err != nil {
			t.Fatalf("decoded invalid name %q: %v", name, err)
		}
	})
}

// FuzzPackTruncated checks the truncation budget is always respected for
// messages the packer accepts.
func FuzzPackTruncated(f *testing.F) {
	f.Add(uint16(7), "host.example.nl.", 128)
	f.Add(uint16(9), "a.b.c.d.nz.", 600)
	f.Fuzz(func(t *testing.T, id uint16, name string, limit int) {
		if limit < 64 || limit > 4096 {
			return
		}
		if ValidateName(name) != nil {
			return
		}
		m := NewQuery(id, name, TypeA).Reply()
		for i := 0; i < 30; i++ {
			m.Answers = append(m.Answers, RR{
				Name: name, Class: ClassIN, TTL: 60,
				Data: AData{Addr: netip.AddrFrom4([4]byte{192, 0, 2, byte(i)})},
			})
		}
		b, err := m.PackTruncated(limit)
		if err != nil {
			return
		}
		if len(b) > limit {
			t.Fatalf("PackTruncated(%d) produced %d bytes", limit, len(b))
		}
		if _, err := Unpack(b); err != nil {
			t.Fatalf("truncated message does not parse: %v", err)
		}
	})
}
