package rdns

import (
	"net/netip"
	"testing"
)

func TestDB(t *testing.T) {
	db := NewDB()
	a := netip.MustParseAddr("192.0.2.1")
	if _, ok := db.Lookup(a); ok {
		t.Error("empty DB hit")
	}
	db.Add(a, "host.example.com")
	got, ok := db.Lookup(a)
	if !ok || got != "host.example.com." {
		t.Errorf("Lookup = %q,%v", got, ok)
	}
	if db.Len() != 1 {
		t.Errorf("Len = %d", db.Len())
	}
	// v4-mapped v6 form of the same address must hit.
	mapped := netip.AddrFrom16(a.As16())
	if _, ok := db.Lookup(mapped); !ok {
		t.Error("v4-mapped miss")
	}
}

func TestFacebookSitesShape(t *testing.T) {
	if len(FacebookSites) != 13 {
		t.Fatalf("sites = %d, want 13 (paper identifies 13 sites)", len(FacebookSites))
	}
	embedding := 0
	for _, s := range FacebookSites {
		if SiteEmbedsIPv4(s) {
			embedding++
		}
	}
	if embedding != 12 {
		t.Fatalf("embedding sites = %d, want 12", embedding)
	}
}

func TestFacebookPTRRoundTrip(t *testing.T) {
	host := netip.MustParseAddr("203.0.113.77")
	name := FacebookPTRName("ams", host, 0)
	site, got, hasV4, ok := ParseFacebookPTR(name)
	if !ok || !hasV4 || site != "ams" || got != host {
		t.Fatalf("parse(%q) = %q %v %v %v", name, site, got, hasV4, ok)
	}
}

func TestFacebookPTRNonEmbeddingSite(t *testing.T) {
	site := FacebookSites[len(FacebookSites)-1]
	name := FacebookPTRName(site, netip.MustParseAddr("203.0.113.1"), 42)
	gotSite, _, hasV4, ok := ParseFacebookPTR(name)
	if !ok || hasV4 || gotSite != site {
		t.Fatalf("parse(%q) = %q %v %v", name, gotSite, hasV4, ok)
	}
}

func TestParseFacebookPTRRejects(t *testing.T) {
	bad := []string{
		"resolver-ams-1-2-3-4.other.example.",
		"host-ams-1-2-3-4." + FacebookPTRDomain,
		"resolver-ams-1-2-3." + FacebookPTRDomain,
		"resolver-ams-1-2-3-999." + FacebookPTRDomain,
		"resolver." + FacebookPTRDomain,
	}
	for _, name := range bad {
		if _, _, _, ok := ParseFacebookPTR(name); ok {
			t.Errorf("parsed %q", name)
		}
	}
}

func TestMatcherJoinsFamilies(t *testing.T) {
	m := NewMatcher()
	host := netip.MustParseAddr("203.0.113.10")
	v4 := netip.MustParseAddr("203.0.113.10")
	v6a := netip.MustParseAddr("2001:db8:face::1")
	v6b := netip.MustParseAddr("2001:db8:face::2")
	ptr := FacebookPTRName("fra", host, 0)
	m.Observe(v4, ptr)
	m.Observe(v6a, ptr)
	m.Observe(v6b, ptr)
	m.Observe(v6a, ptr) // duplicate observation must not duplicate entries
	ds := m.DualStacks()
	if len(ds) != 1 {
		t.Fatalf("dual stacks = %d", len(ds))
	}
	if ds[0].Site != "fra" || len(ds[0].V4) != 1 || len(ds[0].V6) != 2 {
		t.Fatalf("ds = %+v", ds[0])
	}
}

func TestMatcherSingleFamilyNotDualStack(t *testing.T) {
	m := NewMatcher()
	host := netip.MustParseAddr("203.0.113.20")
	m.Observe(netip.MustParseAddr("203.0.113.20"), FacebookPTRName("lhr", host, 0))
	if len(m.DualStacks()) != 0 {
		t.Error("single-family resolver reported dual-stack")
	}
}

func TestMatcherCountsUnmatched(t *testing.T) {
	m := NewMatcher()
	m.Observe(netip.MustParseAddr("192.0.2.1"), "")
	m.Observe(netip.MustParseAddr("192.0.2.2"), "something.google.com.")
	noPTR, nonFB := m.Unmatched()
	if noPTR != 1 || nonFB != 1 {
		t.Errorf("unmatched = %d,%d", noPTR, nonFB)
	}
}

func TestMatcherNonEmbeddingSiteCannotJoin(t *testing.T) {
	m := NewMatcher()
	site := FacebookSites[len(FacebookSites)-1]
	m.Observe(netip.MustParseAddr("203.0.113.30"), FacebookPTRName(site, netip.Addr{}, 1))
	m.Observe(netip.MustParseAddr("2001:db8::30"), FacebookPTRName(site, netip.Addr{}, 1))
	if len(m.DualStacks()) != 0 {
		t.Error("non-embedding site joined families")
	}
}
