package dnswire

import (
	"reflect"
	"strings"
	"testing"
)

// SvcParam keys defined by RFC 9460, for building test records. The codec
// keeps parameters as raw key/value pairs and names no key itself.
const (
	SvcParamALPN          uint16 = 1
	SvcParamNoDefaultALPN uint16 = 2
	SvcParamPort          uint16 = 3
	SvcParamIPv4Hint      uint16 = 4
)

func TestSVCBRoundTrip(t *testing.T) {
	rrs := []RR{
		// AliasMode HTTPS.
		{Name: "example.nl.", Class: ClassIN, TTL: 300,
			Data: SVCBData{RRType: TypeHTTPS, Priority: 0, TargetName: "svc.example.nl."}},
		// ServiceMode with ALPN + port + v4 hint.
		{Name: "example.nl.", Class: ClassIN, TTL: 300,
			Data: SVCBData{RRType: TypeHTTPS, Priority: 1, TargetName: ".",
				Params: []SvcParam{
					{Key: SvcParamALPN, Value: []byte{2, 'h', '2'}},
					{Key: SvcParamPort, Value: []byte{0x01, 0xBB}},
					{Key: SvcParamIPv4Hint, Value: []byte{192, 0, 2, 1}},
				}}},
		// Plain SVCB.
		{Name: "_dns.example.nl.", Class: ClassIN, TTL: 300,
			Data: SVCBData{RRType: TypeSVCB, Priority: 2, TargetName: "doh.example.nl.",
				Params: []SvcParam{{Key: SvcParamNoDefaultALPN}}}},
	}
	m := &Message{Header: Header{ID: 9, Response: true}, Answers: rrs}
	b, err := m.Pack()
	if err != nil {
		t.Fatal(err)
	}
	got, err := Unpack(b)
	if err != nil {
		t.Fatal(err)
	}
	for i := range rrs {
		w := rrs[i].Data.(SVCBData)
		g, ok := got.Answers[i].Data.(SVCBData)
		if !ok {
			t.Fatalf("rr %d decoded as %T", i, got.Answers[i].Data)
		}
		if g.Priority != w.Priority || g.TargetName != w.TargetName || g.Type() != w.Type() {
			t.Errorf("rr %d: got %+v, want %+v", i, g, w)
		}
		if len(g.Params) != len(w.Params) {
			t.Fatalf("rr %d params: %d vs %d", i, len(g.Params), len(w.Params))
		}
		for j := range w.Params {
			if g.Params[j].Key != w.Params[j].Key ||
				!reflect.DeepEqual(normalizeEmpty(g.Params[j].Value), normalizeEmpty(w.Params[j].Value)) {
				t.Errorf("rr %d param %d: %+v vs %+v", i, j, g.Params[j], w.Params[j])
			}
		}
	}
}

func normalizeEmpty(b []byte) []byte {
	if len(b) == 0 {
		return nil
	}
	return b
}

func TestSVCBRejectsBadParams(t *testing.T) {
	// Out-of-order keys must not serialize.
	d := SVCBData{RRType: TypeHTTPS, Priority: 1, TargetName: ".",
		Params: []SvcParam{{Key: 3}, {Key: 1}}}
	m := &Message{Answers: []RR{{Name: "x.nl.", Class: ClassIN, TTL: 1, Data: d}}}
	if _, err := m.Pack(); err == nil {
		t.Error("out-of-order SvcParams packed")
	}
	// Duplicate keys must not serialize.
	d.Params = []SvcParam{{Key: 1}, {Key: 1}}
	m.Answers[0].Data = d
	if _, err := m.Pack(); err == nil {
		t.Error("duplicate SvcParams packed")
	}
	// Out-of-order keys on the wire must not parse.
	good := SVCBData{RRType: TypeHTTPS, Priority: 1, TargetName: ".",
		Params: []SvcParam{{Key: 1, Value: []byte{2, 'h', '2'}}, {Key: 3, Value: []byte{0, 80}}}}
	m.Answers[0].Data = good
	wire, err := m.Pack()
	if err != nil {
		t.Fatal(err)
	}
	// Swap the two param keys in place (key 1 ↔ key 3): find them.
	i1 := -1
	for i := 0; i+1 < len(wire); i++ {
		if wire[i] == 0 && wire[i+1] == 1 && i+5 < len(wire) && wire[i+2] == 0 && wire[i+3] == 3 {
			i1 = i
			break
		}
	}
	if i1 >= 0 {
		wire[i1+1], wire[i1+5] = 3, 1 // best-effort corruption
	}
	// Whether or not the heuristic hit, Unpack must never panic.
	_, _ = Unpack(wire)
}

func TestSVCBPresentation(t *testing.T) {
	d := SVCBData{RRType: TypeHTTPS, Priority: 1, TargetName: ".",
		Params: []SvcParam{{Key: SvcParamPort, Value: []byte{0x01, 0xBB}}}}
	s := d.String()
	if !strings.Contains(s, "key3=01BB") || !strings.HasPrefix(s, "1 .") {
		t.Errorf("presentation = %q", s)
	}
	if TypeHTTPS.String() != "HTTPS" || TypeSVCB.String() != "SVCB" {
		t.Error("type names")
	}
}
