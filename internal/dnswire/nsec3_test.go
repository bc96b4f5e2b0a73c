package dnswire

import (
	"bytes"
	"reflect"
	"testing"
)

func TestBase32Hex(t *testing.T) {
	// RFC 4648 test vectors (extended hex alphabet, lowercased, no pad).
	cases := []struct{ in, want string }{
		{"", ""},
		{"f", "co"},
		{"fo", "cpng"},
		{"foo", "cpnmu"},
		{"foob", "cpnmuog"},
		{"fooba", "cpnmuoj1"},
		{"foobar", "cpnmuoj1e8"},
	}
	for _, c := range cases {
		if got := Base32Hex([]byte(c.in)); got != c.want {
			t.Errorf("Base32Hex(%q) = %q, want %q", c.in, got, c.want)
		}
	}
}

func TestNSEC3RoundTrip(t *testing.T) {
	hash := bytes.Repeat([]byte{0x5a}, 20) // a SHA-1-sized hash
	rrs := []RR{
		{Name: Base32Hex(hash) + ".nl.", Class: ClassIN, TTL: 900,
			Data: NSEC3Data{
				HashAlgo: 1, Flags: 1, Iterations: 3, Salt: []byte{9},
				NextHashed: hash,
				Types:      []Type{TypeNS, TypeDS, TypeRRSIG},
			}},
		{Name: "nl.", Class: ClassIN, TTL: 0,
			Data: NSEC3PARAMData{HashAlgo: 1, Iterations: 3, Salt: []byte{9}}},
		{Name: "nl.", Class: ClassIN, TTL: 0,
			Data: NSEC3PARAMData{HashAlgo: 1}}, // empty salt
	}
	m := &Message{Header: Header{ID: 4, Response: true}, Answers: rrs}
	b, err := m.Pack()
	if err != nil {
		t.Fatal(err)
	}
	got, err := Unpack(b)
	if err != nil {
		t.Fatal(err)
	}
	for i := range rrs {
		// Empty salt decodes as nil vs []byte{}; normalize.
		w, g := rrs[i].Data, got.Answers[i].Data
		if w3, ok := w.(NSEC3PARAMData); ok && len(w3.Salt) == 0 {
			w3.Salt = nil
			w = w3
		}
		if g3, ok := g.(NSEC3PARAMData); ok && len(g3.Salt) == 0 {
			g3.Salt = nil
			g = g3
		}
		if !reflect.DeepEqual(w, g) {
			t.Errorf("rr %d: got %#v, want %#v", i, g, w)
		}
	}
}

func TestNSEC3TypeNames(t *testing.T) {
	if TypeNSEC3.String() != "NSEC3" || TypeNSEC3PARAM.String() != "NSEC3PARAM" {
		t.Error("type names not registered")
	}
}
