package authserver

import (
	"net/netip"
	"testing"
	"time"

	"dnscentral/internal/dnswire"
	"dnscentral/internal/zonedb"
)

var testClient = netip.MustParseAddr("192.0.2.99")

func nlEngine(t *testing.T, opts ...Option) *Engine {
	t.Helper()
	z, err := zonedb.NewCcTLD("nl", 1000, 0, 0.5, []string{"ns1.dns.nl", "ns2.dns.nl"})
	if err != nil {
		t.Fatal(err)
	}
	return NewEngine(z, opts...)
}

func nzEngine(t *testing.T) *Engine {
	t.Helper()
	z, err := zonedb.NewCcTLD("nz", 140, 570, 0.3, []string{"ns1.dns.net.nz"})
	if err != nil {
		t.Fatal(err)
	}
	return NewEngine(z)
}

func handle(t *testing.T, e *Engine, name string, typ dnswire.Type) *dnswire.Message {
	t.Helper()
	q := dnswire.NewQuery(1, name, typ).WithEdns(1232, true)
	r := e.Handle(q, testClient, false)
	if r == nil {
		t.Fatalf("query %s %s dropped", name, typ)
	}
	return r
}

func TestApexSOA(t *testing.T) {
	e := nlEngine(t)
	r := handle(t, e, "nl.", dnswire.TypeSOA)
	if r.Header.RCode != dnswire.RCodeNoError || !r.Header.Authoritative {
		t.Fatalf("header: %+v", r.Header)
	}
	if len(r.Answers) != 1 || r.Answers[0].Data.Type() != dnswire.TypeSOA {
		t.Fatalf("answers: %v", r.Answers)
	}
}

func TestApexNSWithGlue(t *testing.T) {
	e := nlEngine(t)
	r := handle(t, e, "nl.", dnswire.TypeNS)
	if len(r.Answers) != 2 {
		t.Fatalf("answers: %v", r.Answers)
	}
	// Glue: one A + one AAAA per server.
	if len(r.Additional) != 4 {
		t.Fatalf("additional: %v", r.Additional)
	}
}

func TestApexDNSKEY(t *testing.T) {
	e := nlEngine(t)
	r := handle(t, e, "nl.", dnswire.TypeDNSKEY)
	// DO bit is set by the EDNS in handle(), so the DNSKEY comes signed.
	if len(r.Answers) != 2 || r.Answers[0].Data.Type() != dnswire.TypeDNSKEY ||
		r.Answers[1].Data.Type() != dnswire.TypeRRSIG {
		t.Fatalf("answers: %v", r.Answers)
	}
	// Without DO, no signature.
	q := dnswire.NewQuery(4, "nl.", dnswire.TypeDNSKEY)
	plain := e.Handle(q, testClient, false)
	if len(plain.Answers) != 1 {
		t.Fatalf("non-DO answers: %v", plain.Answers)
	}
}

func TestApexNoData(t *testing.T) {
	e := nlEngine(t)
	r := handle(t, e, "nl.", dnswire.TypeMX)
	if r.Header.RCode != dnswire.RCodeNoError || len(r.Answers) != 0 {
		t.Fatalf("NODATA expected: %+v", r)
	}
	if len(r.Authority) != 1 || r.Authority[0].Data.Type() != dnswire.TypeSOA {
		t.Fatalf("authority: %v", r.Authority)
	}
}

// TestNSEC3PARAMAtApex: the engine denies with plain NSEC, so an apex
// NSEC3PARAM query is NODATA like any other absent apex type.
func TestNSEC3PARAMAtApex(t *testing.T) {
	e := nlEngine(t)
	r := handle(t, e, "nl.", dnswire.TypeNSEC3PARAM)
	if r.Header.RCode != dnswire.RCodeNoError || len(r.Answers) != 0 {
		t.Fatalf("NODATA expected: %+v", r)
	}
	if len(r.Authority) != 1 || r.Authority[0].Data.Type() != dnswire.TypeSOA {
		t.Fatalf("authority: %v", r.Authority)
	}
}

func TestReferralForRegisteredDomain(t *testing.T) {
	e := nlEngine(t)
	r := handle(t, e, "www.d7.nl.", dnswire.TypeA)
	if r.Header.RCode != dnswire.RCodeNoError {
		t.Fatalf("rcode = %s", r.Header.RCode)
	}
	if r.Header.Authoritative {
		t.Error("referral must not set AA")
	}
	if len(r.Answers) != 0 {
		t.Errorf("referral has answers: %v", r.Answers)
	}
	nsCount := 0
	for _, rr := range r.Authority {
		if rr.Data.Type() == dnswire.TypeNS {
			nsCount++
			if rr.Name != "d7.nl." {
				t.Errorf("NS owner = %s", rr.Name)
			}
		}
	}
	if nsCount != 3 {
		t.Errorf("NS count = %d, want 3", nsCount)
	}
}

func TestReferralIncludesDSForSignedWithDO(t *testing.T) {
	e := nlEngine(t)
	zone := e.Zone()
	// Find a signed and an unsigned domain.
	var signed, unsigned string
	for rank := 0; rank < 1000 && (signed == "" || unsigned == ""); rank++ {
		name, _ := zone.DomainName(rank)
		if zone.IsSigned(name) {
			if signed == "" {
				signed = name
			}
		} else if unsigned == "" {
			unsigned = name
		}
	}
	r := handle(t, e, signed, dnswire.TypeA)
	foundDS := false
	for _, rr := range r.Authority {
		if rr.Data.Type() == dnswire.TypeDS {
			foundDS = true
		}
	}
	if !foundDS {
		t.Errorf("signed referral for %s lacks DS", signed)
	}
	r = handle(t, e, unsigned, dnswire.TypeA)
	for _, rr := range r.Authority {
		if rr.Data.Type() == dnswire.TypeDS {
			t.Errorf("unsigned referral for %s has DS", unsigned)
		}
	}
	// Without DO, no DS even for signed.
	q := dnswire.NewQuery(2, signed, dnswire.TypeA) // no EDNS at all
	r = e.Handle(q, testClient, false)
	for _, rr := range r.Authority {
		if rr.Data.Type() == dnswire.TypeDS {
			t.Error("DS included without DO bit")
		}
	}
}

func TestReferralGlueOnlyForInZoneHosts(t *testing.T) {
	e := nlEngine(t)
	zone := e.Zone()
	for rank := 0; rank < 50; rank++ {
		name, _ := zone.DomainName(rank)
		hosts := zone.DelegationNS(name)
		r := handle(t, e, name, dnswire.TypeA)
		inZone := dnswire.IsSubdomain(hosts[0], name)
		if inZone && len(r.Additional) == 0 {
			t.Errorf("in-zone NS for %s missing glue", name)
		}
		if !inZone && len(r.Additional) != 0 {
			t.Errorf("out-of-zone NS for %s has glue", name)
		}
	}
}

func TestDSQueryAnsweredAuthoritatively(t *testing.T) {
	e := nlEngine(t)
	zone := e.Zone()
	var signed string
	for rank := 0; rank < 1000; rank++ {
		name, _ := zone.DomainName(rank)
		if zone.IsSigned(name) {
			signed = name
			break
		}
	}
	r := handle(t, e, signed, dnswire.TypeDS)
	if !r.Header.Authoritative {
		t.Error("DS answer must set AA (parent-side data)")
	}
	// Four DS records plus their RRSIG (DO was set).
	if len(r.Answers) != 5 || r.Answers[0].Data.Type() != dnswire.TypeDS ||
		r.Answers[4].Data.Type() != dnswire.TypeRRSIG {
		t.Fatalf("DS answers: %v", r.Answers)
	}
	st := e.Stats()
	if st.DSAnswers == 0 {
		t.Error("DSAnswers counter not bumped")
	}
}

func TestNXDomain(t *testing.T) {
	e := nlEngine(t)
	r := handle(t, e, "no-such-domain.nl.", dnswire.TypeA)
	if r.Header.RCode != dnswire.RCodeNXDomain {
		t.Fatalf("rcode = %s", r.Header.RCode)
	}
	// DO was set, so the negative answer carries denial-of-existence
	// records: SOA, RRSIG(SOA), NSEC, RRSIG(NSEC).
	if len(r.Authority) != 4 || r.Authority[0].Data.Type() != dnswire.TypeSOA {
		t.Fatalf("authority: %v", r.Authority)
	}
	// Without DO: bare SOA.
	q := dnswire.NewQuery(8, "no-such-domain.nl.", dnswire.TypeA)
	plain := e.Handle(q, testClient, false)
	if len(plain.Authority) != 1 {
		t.Fatalf("non-DO authority: %v", plain.Authority)
	}
	if e.Stats().NXDomain != 2 {
		t.Error("NXDomain counter")
	}
}

func TestOutOfZoneRefused(t *testing.T) {
	e := nlEngine(t)
	r := handle(t, e, "example.com.", dnswire.TypeA)
	if r.Header.RCode != dnswire.RCodeRefused {
		t.Fatalf("rcode = %s", r.Header.RCode)
	}
}

func TestChaosClassRefused(t *testing.T) {
	e := nlEngine(t)
	q := dnswire.NewQuery(3, "version.bind.", dnswire.TypeTXT)
	q.Questions[0].Class = dnswire.ClassCH
	q.Questions[0].Name = "d1.nl." // in-zone name, wrong class
	r := e.Handle(q, testClient, false)
	if r.Header.RCode != dnswire.RCodeRefused {
		t.Fatalf("rcode = %s", r.Header.RCode)
	}
}

func TestEmptyNonTerminalNoData(t *testing.T) {
	e := nzEngine(t)
	r := handle(t, e, "co.nz.", dnswire.TypeA)
	if r.Header.RCode != dnswire.RCodeNoError || len(r.Answers) != 0 {
		t.Fatalf("ENT answer: %+v", r.Header)
	}
}

func TestMalformedQueries(t *testing.T) {
	e := nlEngine(t)
	// A response message sent as a query.
	q := dnswire.NewQuery(1, "d1.nl.", dnswire.TypeA)
	q.Header.Response = true
	if r := e.Handle(q, testClient, false); r.Header.RCode != dnswire.RCodeFormErr {
		t.Errorf("response-as-query rcode = %s", r.Header.RCode)
	}
	// Unsupported opcode.
	q = dnswire.NewQuery(1, "d1.nl.", dnswire.TypeA)
	q.Header.Opcode = dnswire.OpcodeUpdate
	if r := e.Handle(q, testClient, false); r.Header.RCode != dnswire.RCodeNotImp {
		t.Errorf("update rcode = %s", r.Header.RCode)
	}
	// Zero questions.
	q = &dnswire.Message{}
	if r := e.Handle(q, testClient, false); r.Header.RCode != dnswire.RCodeFormErr {
		t.Errorf("no-question rcode = %s", r.Header.RCode)
	}
}

func TestRRLSlipsOverLimitUDP(t *testing.T) {
	now := time.Unix(0, 0)
	e := nlEngine(t,
		WithRRL(RRLConfig{RatePerSec: 1, Burst: 5, SlipEvery: 1}),
		WithClock(func() time.Time { return now }),
	)
	q := dnswire.NewQuery(1, "d1.nl.", dnswire.TypeA)
	var normal, slipped int
	for i := 0; i < 20; i++ {
		r := e.Handle(q, testClient, false)
		if r == nil {
			t.Fatal("drop with SlipEvery=1")
		}
		if r.Header.Truncated && len(r.Authority) == 0 {
			slipped++
		} else {
			normal++
		}
	}
	if normal != 5 || slipped != 15 {
		t.Errorf("normal=%d slipped=%d, want 5/15", normal, slipped)
	}
	// Advance time: bucket refills.
	now = now.Add(10 * time.Second)
	r := e.Handle(q, testClient, false)
	if r.Header.Truncated {
		t.Error("bucket did not refill")
	}
}

func TestRRLDoesNotApplyToTCP(t *testing.T) {
	e := nlEngine(t, WithRRL(RRLConfig{RatePerSec: 0.0001, Burst: 1}))
	q := dnswire.NewQuery(1, "d1.nl.", dnswire.TypeA)
	for i := 0; i < 10; i++ {
		r := e.Handle(q, testClient, true)
		if r == nil || r.Header.Truncated {
			t.Fatal("TCP query rate limited")
		}
	}
}

func TestRRLSlipEvery2Drops(t *testing.T) {
	now := time.Unix(0, 0)
	e := nlEngine(t,
		WithRRL(RRLConfig{RatePerSec: 1, Burst: 1, SlipEvery: 2}),
		WithClock(func() time.Time { return now }),
	)
	q := dnswire.NewQuery(1, "d1.nl.", dnswire.TypeA)
	_ = e.Handle(q, testClient, false) // consumes the only token
	var drops, slips int
	for i := 0; i < 10; i++ {
		if r := e.Handle(q, testClient, false); r == nil {
			drops++
		} else {
			slips++
		}
	}
	if drops != 5 || slips != 5 {
		t.Errorf("drops=%d slips=%d", drops, slips)
	}
	st := e.Stats()
	if st.RRLDrops != 5 || st.RRLSlips != 5 {
		t.Errorf("stats: %+v", st)
	}
}

func TestRRLPerClientIsolation(t *testing.T) {
	now := time.Unix(0, 0)
	e := nlEngine(t,
		WithRRL(RRLConfig{RatePerSec: 1, Burst: 1, SlipEvery: 1}),
		WithClock(func() time.Time { return now }),
	)
	q := dnswire.NewQuery(1, "d1.nl.", dnswire.TypeA)
	_ = e.Handle(q, testClient, false)
	// Exhausted for testClient, but a different client is unaffected.
	other := netip.MustParseAddr("198.51.100.50")
	if r := e.Handle(q, other, false); r.Header.Truncated {
		t.Error("RRL leaked across clients")
	}
}

func TestGlueAddrsStableAndDistinct(t *testing.T) {
	a4, a6 := GlueAddrs("ns1.d1.nl.")
	b4, b6 := GlueAddrs("ns1.d1.nl.")
	if a4 != b4 || a6 != b6 {
		t.Error("glue not deterministic")
	}
	c4, _ := GlueAddrs("ns2.d1.nl.")
	if a4 == c4 {
		t.Error("distinct hosts share glue v4 (hash collision on trivial input)")
	}
	if !a4.Is4() || !a6.Is6() {
		t.Error("glue families wrong")
	}
}

func TestPackResponseTruncatesUDP(t *testing.T) {
	e := nlEngine(t)
	q := dnswire.NewQuery(9, "nl.", dnswire.TypeNS) // no EDNS: 512 limit
	r := e.Handle(q, testClient, false)
	// Inflate the response beyond 512 with extra additional records.
	for i := 0; i < 40; i++ {
		v4, _ := GlueAddrs("ns1.dns.nl.")
		r.Additional = append(r.Additional, dnswire.RR{
			Name: "ns1.dns.nl.", Class: dnswire.ClassIN, TTL: 1,
			Data: dnswire.AData{Addr: v4},
		})
	}
	out, err := PackResponse(r, q, false)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) > 512 {
		t.Fatalf("UDP response %d bytes", len(out))
	}
	parsed, err := dnswire.Unpack(out)
	if err != nil {
		t.Fatal(err)
	}
	if !parsed.Header.Truncated {
		t.Error("TC not set")
	}
	// Same response via TCP is complete.
	out, err = PackResponse(r, q, true)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) <= 512 {
		t.Error("TCP response unexpectedly small")
	}
}

func TestStatsCounters(t *testing.T) {
	e := nlEngine(t)
	handle(t, e, "d1.nl.", dnswire.TypeA)       // referral
	handle(t, e, "nope.nl.", dnswire.TypeA)     // nxdomain
	handle(t, e, "nl.", dnswire.TypeSOA)        // apex
	handle(t, e, "example.org.", dnswire.TypeA) // refused
	st := e.Stats()
	if st.Queries != 4 || st.Referrals != 1 || st.NXDomain != 1 || st.ApexAnswers != 1 || st.Refused != 1 {
		t.Errorf("stats: %+v", st)
	}
}
