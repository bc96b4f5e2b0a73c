package authserver

import (
	"math/rand"
	"testing"
	"testing/quick"

	"dnscentral/internal/dnswire"
	"dnscentral/internal/zonedb"
)

func TestDenialProofPresentOnlyWithDO(t *testing.T) {
	e := nlEngine(t)
	r := handle(t, e, "junkname.nl.", dnswire.TypeA) // DO set by helper
	var nsec *dnswire.NSECData
	for _, rr := range r.Authority {
		if d, ok := rr.Data.(dnswire.NSECData); ok {
			nsec = &d
			if !CoversName("nl.", rr.Name, d.NextName, "junkname.nl.") {
				t.Errorf("NSEC (%s, %s) does not cover the denied name", rr.Name, d.NextName)
			}
		}
	}
	if nsec == nil {
		t.Fatal("no NSEC in DO NXDOMAIN")
	}
}

func TestDenialRangeRootZone(t *testing.T) {
	z, err := zonedb.NewRoot(zonedb.DefaultRootTLDs, []string{"b.root-servers.net"})
	if err != nil {
		t.Fatal(err)
	}
	e := NewEngine(z)
	q := dnswire.NewQuery(1, "qqjunktld.", dnswire.TypeA).WithEdns(1232, true)
	r := e.Handle(q, testClient, false)
	if r.Header.RCode != dnswire.RCodeNXDomain {
		t.Fatalf("rcode = %s", r.Header.RCode)
	}
	found := false
	for _, rr := range r.Authority {
		if d, ok := rr.Data.(dnswire.NSECData); ok {
			found = true
			if !CoversName(".", rr.Name, d.NextName, "qqjunktld.") {
				t.Errorf("root NSEC (%s, %s) does not cover the junk TLD", rr.Name, d.NextName)
			}
		}
	}
	if !found {
		t.Fatal("no NSEC in root NXDOMAIN")
	}
}

// TestPropertyDenialNeverCoversRegistered: for random junk names, the
// denial range returned must cover the junk but never any registered
// delegation or any name under one.
func TestPropertyDenialNeverCoversRegistered(t *testing.T) {
	z, err := zonedb.NewCcTLD("nl", 10000, 0, 0.5, []string{"ns1.dns.nl"})
	if err != nil {
		t.Fatal(err)
	}
	cfg := &quick.Config{MaxCount: 300, Rand: rand.New(rand.NewSource(1))}
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		// Random junk label (never d<digits> by construction: always ≥1
		// letter beyond 'd' prefix or shorter).
		n := 3 + r.Intn(10)
		lbl := make([]byte, n)
		for i := range lbl {
			lbl[i] = byte('a' + r.Intn(26))
		}
		junk := string(lbl) + ".nl."
		if _, ok := z.Delegation(junk); ok {
			return true // astronomically unlikely, but skip
		}
		owner, next := DenialRange("nl.", junk)
		if !CoversName("nl.", owner, next, junk) {
			return false
		}
		// Probe registered names and children.
		for probe := 0; probe < 10; probe++ {
			name, _ := z.DomainName(r.Intn(10000))
			if CoversName("nl.", owner, next, name) {
				return false
			}
			if CoversName("nl.", owner, next, "www."+name) {
				return false
			}
		}
		// The apex is never denied.
		return !CoversName("nl.", owner, next, "nl.")
	}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

func TestCoversNameWrapAround(t *testing.T) {
	// Range (d:.nl., nl.) wraps to the zone end.
	if !CoversName("nl.", "d:.nl.", "nl.", "zzz.nl.") {
		t.Error("wrap-around range must cover high names")
	}
	if CoversName("nl.", "d:.nl.", "nl.", "aaa.nl.") {
		t.Error("wrap-around range must not cover low names")
	}
	// Subdomains of registered names sort with their parent, not at the
	// top of the zone (RFC 4034 canonical order).
	if CoversName("nl.", "d:.nl.", "nl.", "www.d5.nl.") {
		t.Error("child of registered name wrongly denied")
	}
}
