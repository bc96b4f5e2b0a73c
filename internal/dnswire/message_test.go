package dnswire

import (
	"bytes"
	"math/rand"
	"net/netip"
	"reflect"
	"testing"
	"testing/quick"
)

func mustPack(t *testing.T, m *Message) []byte {
	t.Helper()
	b, err := m.Pack()
	if err != nil {
		t.Fatalf("Pack: %v", err)
	}
	return b
}

func TestQueryRoundTrip(t *testing.T) {
	q := NewQuery(0x1234, "example.nl", TypeA)
	b := mustPack(t, q)
	got, err := Unpack(b)
	if err != nil {
		t.Fatalf("Unpack: %v", err)
	}
	if got.Header.ID != 0x1234 || got.Header.Response || !got.Header.RecursionDesired {
		t.Errorf("header mismatch: %+v", got.Header)
	}
	if q := got.Question(); q.Name != "example.nl." || q.Type != TypeA || q.Class != ClassIN {
		t.Errorf("question mismatch: %+v", q)
	}
}

func TestQueryWithEdnsRoundTrip(t *testing.T) {
	q := NewQuery(7, "example.nz", TypeAAAA).WithEdns(1232, true)
	b := mustPack(t, q)
	got, err := Unpack(b)
	if err != nil {
		t.Fatal(err)
	}
	if got.Edns == nil {
		t.Fatal("EDNS lost")
	}
	if got.Edns.UDPSize != 1232 || !got.Edns.DO {
		t.Errorf("EDNS = %+v", got.Edns)
	}
	if len(got.Additional) != 0 {
		t.Errorf("OPT leaked into Additional: %v", got.Additional)
	}
}

func sampleResponse() *Message {
	m := NewQuery(42, "example.nl", TypeA).Reply()
	m.Header.Authoritative = true
	m.Answers = []RR{
		{Name: "example.nl.", Class: ClassIN, TTL: 3600,
			Data: AData{Addr: netip.MustParseAddr("192.0.2.1")}},
	}
	m.Authority = []RR{
		{Name: "example.nl.", Class: ClassIN, TTL: 3600,
			Data: NSData{Host: "ns1.example.nl."}},
		{Name: "example.nl.", Class: ClassIN, TTL: 3600,
			Data: NSData{Host: "ns2.example.nl."}},
	}
	m.Additional = []RR{
		{Name: "ns1.example.nl.", Class: ClassIN, TTL: 3600,
			Data: AData{Addr: netip.MustParseAddr("192.0.2.53")}},
		{Name: "ns1.example.nl.", Class: ClassIN, TTL: 3600,
			Data: AAAAData{Addr: netip.MustParseAddr("2001:db8::53")}},
	}
	return m
}

func TestResponseRoundTrip(t *testing.T) {
	m := sampleResponse()
	b := mustPack(t, m)
	got, err := Unpack(b)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Answers) != 1 || len(got.Authority) != 2 || len(got.Additional) != 2 {
		t.Fatalf("section sizes: %d/%d/%d", len(got.Answers), len(got.Authority), len(got.Additional))
	}
	a, ok := got.Answers[0].Data.(AData)
	if !ok || a.Addr != netip.MustParseAddr("192.0.2.1") {
		t.Errorf("answer = %v", got.Answers[0])
	}
	ns, ok := got.Authority[1].Data.(NSData)
	if !ok || ns.Host != "ns2.example.nl." {
		t.Errorf("authority = %v", got.Authority[1])
	}
	aaaa, ok := got.Additional[1].Data.(AAAAData)
	if !ok || aaaa.Addr != netip.MustParseAddr("2001:db8::53") {
		t.Errorf("additional = %v", got.Additional[1])
	}
}

func TestCompressionSavesSpace(t *testing.T) {
	m := sampleResponse()
	b := mustPack(t, m)
	// Repack without compression by packing each name standalone would be
	// longer; sanity check the compressed form is well under that bound.
	if len(b) > 200 {
		t.Errorf("compressed response is %d bytes, expected < 200", len(b))
	}
}

func TestAllRDataTypesRoundTrip(t *testing.T) {
	rrs := []RR{
		{Name: "example.nl.", Class: ClassIN, TTL: 60, Data: AData{Addr: netip.MustParseAddr("203.0.113.9")}},
		{Name: "example.nl.", Class: ClassIN, TTL: 60, Data: AAAAData{Addr: netip.MustParseAddr("2001:db8:1::9")}},
		{Name: "example.nl.", Class: ClassIN, TTL: 60, Data: NSData{Host: "ns.example.nl."}},
		{Name: "alias.example.nl.", Class: ClassIN, TTL: 60, Data: CNAMEData{Target: "example.nl."}},
		{Name: "9.113.0.203.in-addr.arpa.", Class: ClassIN, TTL: 60, Data: PTRData{Target: "host.example.nl."}},
		{Name: "nl.", Class: ClassIN, TTL: 60, Data: SOAData{
			MName: "ns1.dns.nl.", RName: "hostmaster.domain-registry.nl.",
			Serial: 2020041100, Refresh: 3600, Retry: 600, Expire: 2419200, Minimum: 600}},
		{Name: "example.nl.", Class: ClassIN, TTL: 60, Data: MXData{Preference: 10, Exchange: "mx.example.nl."}},
		{Name: "example.nl.", Class: ClassIN, TTL: 60, Data: TXTData{Strings: []string{"v=spf1 -all", "second"}}},
		{Name: "_sip._tcp.example.nl.", Class: ClassIN, TTL: 60, Data: SRVData{Priority: 1, Weight: 5, Port: 5060, Target: "sip.example.nl."}},
		{Name: "example.nl.", Class: ClassIN, TTL: 60, Data: DSData{KeyTag: 12345, Algorithm: 13, DigestType: 2, Digest: []byte{1, 2, 3, 4}}},
		{Name: "nl.", Class: ClassIN, TTL: 60, Data: DNSKEYData{Flags: 257, Protocol: 3, Algorithm: 13, PublicKey: []byte{9, 8, 7}}},
		{Name: "nl.", Class: ClassIN, TTL: 60, Data: RRSIGData{
			TypeCovered: TypeSOA, Algorithm: 13, Labels: 1, OriginalTTL: 3600,
			Expiration: 1588000000, Inception: 1586000000, KeyTag: 12345,
			SignerName: "nl.", Signature: []byte{0xAA, 0xBB}}},
		{Name: "a.nl.", Class: ClassIN, TTL: 60, Data: NSECData{NextName: "b.nl.", Types: []Type{TypeA, TypeNS, TypeRRSIG, TypeCAA}}},
		{Name: "example.nl.", Class: ClassIN, TTL: 60, Data: CAAData{Flags: 0, Tag: "issue", Value: "letsencrypt.org"}},
		{Name: "example.nl.", Class: ClassIN, TTL: 60, Data: RawData{RRType: Type(999), Data: []byte{1, 2, 3}}},
	}
	m := &Message{Header: Header{ID: 1, Response: true}, Answers: rrs}
	b := mustPack(t, m)
	got, err := Unpack(b)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Answers) != len(rrs) {
		t.Fatalf("got %d answers, want %d", len(got.Answers), len(rrs))
	}
	for i, rr := range rrs {
		if !reflect.DeepEqual(got.Answers[i].Data, rr.Data) {
			t.Errorf("rr %d (%s): got %#v, want %#v", i, rr.Data.Type(), got.Answers[i].Data, rr.Data)
		}
		if got.Answers[i].Name != CanonicalName(rr.Name) {
			t.Errorf("rr %d name: got %q", i, got.Answers[i].Name)
		}
	}
}

func TestEmptyTXTRoundTrip(t *testing.T) {
	m := &Message{Answers: []RR{{Name: "x.nl.", Class: ClassIN, TTL: 1, Data: TXTData{}}}}
	b := mustPack(t, m)
	got, err := Unpack(b)
	if err != nil {
		t.Fatal(err)
	}
	txt := got.Answers[0].Data.(TXTData)
	if len(txt.Strings) != 1 || txt.Strings[0] != "" {
		t.Errorf("empty TXT round trip = %#v", txt)
	}
}

func TestPackTruncated(t *testing.T) {
	m := sampleResponse()
	full := mustPack(t, m)
	// Force truncation just below the full size.
	b, err := m.PackTruncated(len(full) - 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(b) >= len(full) {
		t.Errorf("truncated pack %d >= full %d", len(b), len(full))
	}
	got, err := Unpack(b)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Header.Truncated {
		t.Error("TC bit not set after truncation")
	}
	// Question must survive.
	if got.Question().Name != "example.nl." {
		t.Errorf("question lost: %+v", got.Question())
	}
}

func TestPackTruncatedFitsExactly(t *testing.T) {
	m := sampleResponse()
	full := mustPack(t, m)
	b, err := m.PackTruncated(len(full))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(b, full) {
		t.Error("no-op truncation altered message")
	}
	got, _ := Unpack(b)
	if got.Header.Truncated {
		t.Error("TC set although nothing was dropped")
	}
}

func TestPackTruncatedTo512(t *testing.T) {
	// Large response: 40 answers of ~30 bytes each.
	m := NewQuery(9, "big.example.nl", TypeA).Reply()
	for i := 0; i < 40; i++ {
		m.Answers = append(m.Answers, RR{
			Name: "big.example.nl.", Class: ClassIN, TTL: 60,
			Data: AData{Addr: netip.AddrFrom4([4]byte{198, 51, 100, byte(i)})},
		})
	}
	b, err := m.PackTruncated(MinUDPSize)
	if err != nil {
		t.Fatal(err)
	}
	if len(b) > MinUDPSize {
		t.Fatalf("truncated message is %d bytes", len(b))
	}
	got, err := Unpack(b)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Header.Truncated {
		t.Error("TC not set")
	}
	if len(got.Answers) == 40 {
		t.Error("no answers dropped")
	}
}

func TestUnpackRejectsGarbage(t *testing.T) {
	cases := [][]byte{
		nil,
		{1, 2, 3},
		bytes.Repeat([]byte{0xFF}, 12), // counts far exceed size
	}
	for i, b := range cases {
		if _, err := Unpack(b); err == nil {
			t.Errorf("case %d: garbage accepted", i)
		}
	}
}

func TestUnpackRejectsTrailing(t *testing.T) {
	b := mustPack(t, NewQuery(1, "a.nl", TypeA))
	b = append(b, 0xDE, 0xAD)
	if _, err := Unpack(b); err != ErrTrailingData {
		t.Errorf("err = %v, want ErrTrailingData", err)
	}
	// UnpackPrefix should succeed and report consumed length.
	m, n, err := UnpackPrefix(b)
	if err != nil || n != len(b)-2 || m.Question().Name != "a.nl." {
		t.Errorf("UnpackPrefix: %v %d", err, n)
	}
}

func TestReplyEchoes(t *testing.T) {
	q := NewQuery(77, "x.nz", TypeNS).WithEdns(4096, true)
	r := q.Reply()
	if !r.Header.Response || r.Header.ID != 77 || !r.Header.RecursionDesired {
		t.Errorf("reply header: %+v", r.Header)
	}
	if r.Question() != q.Question() {
		t.Errorf("reply question: %+v", r.Question())
	}
	if r.Edns == nil || !r.Edns.DO {
		t.Error("reply lost EDNS/DO")
	}
}

func TestFlagsRoundTrip(t *testing.T) {
	f := func(id uint16, qr, aa, tc, rd, ra, ad, cd bool, op, rc uint8) bool {
		h := Header{
			ID: id, Response: qr, Opcode: Opcode(op & 0xF),
			Authoritative: aa, Truncated: tc, RecursionDesired: rd,
			RecursionAvailable: ra, AuthenticData: ad, CheckingDisabled: cd,
			RCode: RCode(rc & 0xF),
		}
		got := unpackFlags(packFlags(h))
		got.ID = id
		return got == h
	}
	if err := quick.Check(f, &quick.Config{Rand: rand.New(rand.NewSource(1))}); err != nil {
		t.Error(err)
	}
}

func TestEffectiveUDPSize(t *testing.T) {
	var e *EDNS
	if e.EffectiveUDPSize() != 512 {
		t.Error("nil EDNS should mean 512")
	}
	if (&EDNS{UDPSize: 100}).EffectiveUDPSize() != 512 {
		t.Error("tiny advertised size should clamp to 512")
	}
	if (&EDNS{UDPSize: 1232}).EffectiveUDPSize() != 1232 {
		t.Error("1232 should pass through")
	}
}

func TestEDNSOptionsRoundTrip(t *testing.T) {
	q := NewQuery(5, "opt.nl", TypeA)
	q.Edns = &EDNS{UDPSize: 4096, Options: []EDNSOption{
		{Code: EDNSOptionCookie, Data: []byte{1, 2, 3, 4, 5, 6, 7, 8}},
		{Code: EDNSOptionPadding, Data: make([]byte, 16)},
	}}
	b := mustPack(t, q)
	got, err := Unpack(b)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Edns.Options) != 2 ||
		got.Edns.Options[0].Code != EDNSOptionCookie ||
		len(got.Edns.Options[1].Data) != 16 {
		t.Errorf("options = %+v", got.Edns.Options)
	}
}

func TestExtendedRCode(t *testing.T) {
	m := NewQuery(1, "x.nl", TypeA).Reply()
	m.Header.RCode = RCodeNoError
	m.Edns = &EDNS{UDPSize: 1232, ExtRCode: 1} // e.g. BADVERS = 16
	b := mustPack(t, m)
	got, err := Unpack(b)
	if err != nil {
		t.Fatal(err)
	}
	if got.Header.RCode != RCode(16) {
		t.Errorf("extended rcode = %d, want 16", got.Header.RCode)
	}
}

// randomMessage builds a structurally valid random message for fuzz-ish
// round-trip checking.
func randomMessage(r *rand.Rand) *Message {
	m := NewQuery(uint16(r.Uint32()), randomName(r), []Type{TypeA, TypeNS, TypeAAAA, TypeDS, TypeMX}[r.Intn(5)])
	if r.Intn(2) == 0 {
		m.WithEdns(uint16(512+r.Intn(4096)), r.Intn(2) == 0)
	}
	n := r.Intn(4)
	for i := 0; i < n; i++ {
		var d RData
		switch r.Intn(4) {
		case 0:
			d = AData{Addr: netip.AddrFrom4([4]byte{byte(r.Intn(256)), byte(r.Intn(256)), byte(r.Intn(256)), byte(r.Intn(256))})}
		case 1:
			var a16 [16]byte
			a16[0], a16[1] = 0x20, 0x01
			a16[15] = byte(r.Intn(256))
			d = AAAAData{Addr: netip.AddrFrom16(a16)}
		case 2:
			d = NSData{Host: randomName(r)}
		default:
			d = TXTData{Strings: []string{"t"}}
		}
		m.Answers = append(m.Answers, RR{Name: m.Question().Name, Class: ClassIN, TTL: uint32(r.Intn(86400)), Data: d})
	}
	return m
}

func TestPropertyMessageRoundTrip(t *testing.T) {
	cfg := &quick.Config{MaxCount: 400, Rand: rand.New(rand.NewSource(1))}
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		m := randomMessage(r)
		b, err := m.Pack()
		if err != nil {
			return false
		}
		got, err := Unpack(b)
		if err != nil {
			return false
		}
		if got.Question() != m.Question() || len(got.Answers) != len(m.Answers) {
			return false
		}
		// Repacking the parsed form must produce a parseable equal message.
		b2, err := got.Pack()
		if err != nil {
			return false
		}
		got2, err := Unpack(b2)
		return err == nil && reflect.DeepEqual(got.Answers, got2.Answers)
	}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

func TestPropertyUnpackNeverPanics(t *testing.T) {
	cfg := &quick.Config{MaxCount: 2000, Rand: rand.New(rand.NewSource(1))}
	f := func(data []byte) bool {
		// Must not panic; errors are fine.
		_, _ = Unpack(data)
		return true
	}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

// TestPropertyTruncationRespectsLimit holds PackTruncated to an exact
// oracle: it fails if and only if the header and question alone — every
// record and, as a last resort, the OPT record dropped — exceed the
// limit, and whatever it returns fits. The fixed rows are generator seeds
// whose qname alone overflows a 64–72 byte limit.
func TestPropertyTruncationRespectsLimit(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		m := randomMessage(r)
		limit := 64 + r.Intn(512)
		bare := Message{Header: m.Header, Questions: m.Questions}
		floor, err := bare.Pack()
		if err != nil {
			return false
		}
		b, err := m.PackTruncated(limit)
		if err != nil {
			return len(floor) > limit
		}
		return len(floor) <= limit && len(b) <= limit
	}
	for _, seed := range []int64{8617, 9998, 10304, 15365, 20923} {
		if !f(seed) {
			t.Errorf("seed %d: PackTruncated disagrees with the header+question oracle", seed)
		}
	}
	cfg := &quick.Config{MaxCount: 200, Rand: rand.New(rand.NewSource(1))}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

func TestTypeStrings(t *testing.T) {
	if TypeA.String() != "A" || TypeDNSKEY.String() != "DNSKEY" {
		t.Error("type names wrong")
	}
	if Type(9999).String() != "TYPE9999" {
		t.Errorf("unknown type = %s", Type(9999))
	}
	if RCodeNXDomain.String() != "NXDOMAIN" {
		t.Error("rcode name wrong")
	}
	if ClassIN.String() != "IN" {
		t.Error("class name wrong")
	}
}

func BenchmarkPackQuery(b *testing.B) {
	q := NewQuery(1, "www.example.nl", TypeA).WithEdns(1232, true)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := q.Pack(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkUnpackResponse(b *testing.B) {
	m := sampleResponse()
	buf, _ := m.Pack()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Unpack(buf); err != nil {
			b.Fatal(err)
		}
	}
}
