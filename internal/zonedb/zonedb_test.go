package zonedb

import (
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"dnscentral/internal/dnswire"
)

func newNL(t *testing.T) *Zone {
	t.Helper()
	z, err := NewCcTLD("nl", 10000, 0, 0.55, []string{"ns1.dns.nl", "ns2.dns.nl"})
	if err != nil {
		t.Fatal(err)
	}
	return z
}

func newNZ(t *testing.T) *Zone {
	t.Helper()
	z, err := NewCcTLD("nz", 1400, 5700, 0.3, []string{"ns1.dns.net.nz", "ns2.dns.net.nz"})
	if err != nil {
		t.Fatal(err)
	}
	return z
}

func newRoot(t *testing.T) *Zone {
	t.Helper()
	z, err := NewRoot(DefaultRootTLDs, []string{"b.root-servers.net"})
	if err != nil {
		t.Fatal(err)
	}
	return z
}

func TestZoneConstructorsValidate(t *testing.T) {
	if _, err := NewCcTLD(".", 10, 0, 0.5, []string{"ns1.x."}); err == nil {
		t.Error("root accepted as ccTLD")
	}
	if _, err := NewCcTLD("nl", 0, 0, 0.5, []string{"ns1.x."}); err == nil {
		t.Error("empty zone accepted")
	}
	if _, err := NewCcTLD("nl", 10, 0, 1.5, []string{"ns1.x."}); err == nil {
		t.Error("bad signedFraction accepted")
	}
	if _, err := NewCcTLD("nl", 10, 0, 0.5, nil); err == nil {
		t.Error("no server names accepted")
	}
	if _, err := NewRoot(nil, []string{"b.root-servers.net"}); err == nil {
		t.Error("empty root accepted")
	}
	if _, err := NewRoot([]string{"a.b"}, []string{"x."}); err == nil {
		t.Error("multi-label TLD accepted")
	}
}

func TestSizesMatchConfiguration(t *testing.T) {
	nl, nz := newNL(t), newNZ(t)
	if nl.Size() != 10000 || nl.numSecond != 10000 || nl.numThird != 0 {
		t.Errorf("nl sizes: %d/%d/%d", nl.Size(), nl.numSecond, nl.numThird)
	}
	if nz.Size() != 7100 || nz.numSecond != 1400 || nz.numThird != 5700 {
		t.Errorf("nz sizes: %d/%d/%d", nz.Size(), nz.numSecond, nz.numThird)
	}
}

func TestDomainNameShapes(t *testing.T) {
	nl, nz := newNL(t), newNZ(t)
	n, err := nl.DomainName(42)
	if err != nil || n != "d42.nl." {
		t.Errorf("nl rank 42 = %q, %v", n, err)
	}
	n, err = nz.DomainName(100) // second level
	if err != nil || n != "d100.nz." {
		t.Errorf("nz rank 100 = %q, %v", n, err)
	}
	n, err = nz.DomainName(1400) // first third-level
	if err != nil || !strings.HasSuffix(n, ".nz.") || len(strings.Split(strings.TrimSuffix(n, "."), ".")) != 3 {
		t.Errorf("nz rank 1400 = %q, %v", n, err)
	}
	if _, err := nl.DomainName(-1); err == nil {
		t.Error("negative rank accepted")
	}
	if _, err := nl.DomainName(10000); err == nil {
		t.Error("out-of-range rank accepted")
	}
}

func TestDelegationLookup(t *testing.T) {
	nl := newNL(t)
	cases := []struct {
		q    string
		want string
		ok   bool
	}{
		{"d0.nl.", "d0.nl.", true},
		{"www.d0.nl.", "d0.nl.", true},
		{"a.b.c.d9999.nl.", "d9999.nl.", true},
		{"d10000.nl.", "", false},   // beyond zone size
		{"nl.", "", false},          // the apex is not a delegation
		{"example.com.", "", false}, // out of zone
		{"nosuch.nl.", "", false},
		{"d01.nl.", "", false}, // leading zero form is not registered
	}
	for _, c := range cases {
		got, ok := nl.Delegation(c.q)
		if ok != c.ok || got != c.want {
			t.Errorf("Delegation(%q) = %q,%v; want %q,%v", c.q, got, ok, c.want, c.ok)
		}
	}
}

func TestNZThirdLevelDelegation(t *testing.T) {
	nz := newNZ(t)
	name, err := nz.DomainName(1400)
	if err != nil {
		t.Fatal(err)
	}
	got, ok := nz.Delegation("www." + name)
	if !ok || got != name {
		t.Errorf("Delegation(www.%s) = %q,%v", name, got, ok)
	}
	// The same d-label under the wrong category must not exist.
	parts := strings.SplitN(name, ".", 2)
	wrongCat := "co"
	if strings.HasPrefix(parts[1], "co.") {
		wrongCat = "org"
	}
	bad := parts[0] + "." + wrongCat + ".nz."
	if bad != name {
		if _, ok := nz.Delegation(bad); ok {
			t.Errorf("wrong-category name %q accepted", bad)
		}
	}
	// A second-level rank must not be resolvable as third level.
	if _, ok := nz.Delegation("d100.co.nz."); ok {
		t.Error("second-level rank matched under category")
	}
}

func TestExists(t *testing.T) {
	nz := newNZ(t)
	if !nz.Exists("nz.") {
		t.Error("apex must exist")
	}
	if !nz.Exists("co.nz.") {
		t.Error("category cut must exist")
	}
	if nz.Exists("qqq.nz.") {
		t.Error("unregistered name exists")
	}
	name, _ := nz.DomainName(0)
	if !nz.Exists(name) || !nz.Exists("mail."+name) {
		t.Errorf("registered name %s must exist", name)
	}
}

func TestRootDelegations(t *testing.T) {
	root := newRoot(t)
	if !root.IsRoot() {
		t.Fatal("not root")
	}
	if root.Size() != len(DefaultRootTLDs) {
		t.Errorf("root size = %d", root.Size())
	}
	got, ok := root.Delegation("www.example.nl.")
	if !ok || got != "nl." {
		t.Errorf("Delegation(www.example.nl.) = %q,%v", got, ok)
	}
	if _, ok := root.Delegation("chromium-junk-xyzzy."); ok {
		t.Error("random TLD delegated")
	}
	if _, ok := root.Delegation("sub.chromium-junk-xyzzy."); ok {
		t.Error("name under random TLD delegated")
	}
	name, err := root.DomainName(0)
	if err != nil || !strings.HasSuffix(name, ".") {
		t.Errorf("root DomainName = %q, %v", name, err)
	}
}

func TestSignedFractionApproximate(t *testing.T) {
	nl := newNL(t)
	signed := 0
	const n = 5000
	for rank := 0; rank < n; rank++ {
		name, _ := nl.DomainName(rank)
		if nl.IsSigned(name) {
			signed++
		}
	}
	frac := float64(signed) / n
	if frac < 0.50 || frac > 0.60 {
		t.Errorf("signed fraction = %v, want ~0.55", frac)
	}
}

func TestIsSignedDeterministic(t *testing.T) {
	nl := newNL(t)
	name, _ := nl.DomainName(77)
	if nl.IsSigned(name) != nl.IsSigned(name) {
		t.Error("IsSigned not deterministic")
	}
}

func TestSignedEdgeFractions(t *testing.T) {
	all, _ := NewCcTLD("nl", 100, 0, 1, []string{"ns1.dns.nl"})
	none, _ := NewCcTLD("nl", 100, 0, 0, []string{"ns1.dns.nl"})
	for rank := 0; rank < 100; rank++ {
		name, _ := all.DomainName(rank)
		if !all.IsSigned(name) {
			t.Fatalf("fraction=1 left %s unsigned", name)
		}
		if none.IsSigned(name) {
			t.Fatalf("fraction=0 signed %s", name)
		}
	}
}

func TestDSRecordsOnlyWhenSigned(t *testing.T) {
	nl := newNL(t)
	for rank := 0; rank < 200; rank++ {
		name, _ := nl.DomainName(rank)
		ds := nl.DSRecords(name)
		if nl.IsSigned(name) {
			if len(ds) != 4 {
				t.Fatalf("signed %s has %d DS records, want 4", name, len(ds))
			}
			if ds[0].Data.Type() != dnswire.TypeDS || ds[0].Name != name {
				t.Fatalf("DS record malformed: %v", ds[0])
			}
		} else if len(ds) != 0 {
			t.Fatalf("unsigned %s has DS records", name)
		}
	}
}

func TestDelegationNSStable(t *testing.T) {
	nl := newNL(t)
	name, _ := nl.DomainName(5)
	a, b := nl.DelegationNS(name), nl.DelegationNS(name)
	if len(a) != 3 || len(b) != 3 || a[0] != b[0] || a[1] != b[1] || a[2] != b[2] {
		t.Errorf("NS set unstable: %v vs %v", a, b)
	}
	for _, h := range a {
		if dnswire.ValidateName(h) != nil {
			t.Errorf("invalid NS host %q", h)
		}
	}
}

func TestApexRecords(t *testing.T) {
	nl := newNL(t)
	soa := nl.SOA()
	if soa.Name != "nl." || soa.Data.Type() != dnswire.TypeSOA {
		t.Errorf("SOA = %v", soa)
	}
	keys := nl.DNSKEY()
	if len(keys) != 1 || keys[0].Data.Type() != dnswire.TypeDNSKEY {
		t.Errorf("DNSKEY = %v", keys)
	}
	ns := nl.ApexNS()
	if len(ns) != 2 || ns[0].Data.(dnswire.NSData).Host != "ns1.dns.nl." {
		t.Errorf("ApexNS = %v", ns)
	}
}

// TestPropertyEveryRankRoundTrips checks DomainName → Delegation is the
// identity for every zone shape.
func TestPropertyEveryRankRoundTrips(t *testing.T) {
	nl, nz, root := newNL(t), newNZ(t), newRoot(t)
	cfg := &quick.Config{MaxCount: 300, Rand: rand.New(rand.NewSource(1))}
	for _, z := range []*Zone{nl, nz, root} {
		z := z
		f := func(seed int64) bool {
			r := rand.New(rand.NewSource(seed))
			rank := r.Intn(z.Size())
			name, err := z.DomainName(rank)
			if err != nil {
				return false
			}
			got, ok := z.Delegation(name)
			if !ok || got != name {
				return false
			}
			// Any label prefixed under the delegation maps back too.
			got, ok = z.Delegation("xx." + name)
			return ok && got == name
		}
		if err := quick.Check(f, cfg); err != nil {
			t.Errorf("zone %s: %v", z.Origin, err)
		}
	}
}

func BenchmarkDelegationLookup(b *testing.B) {
	z, err := NewCcTLD("nl", 5_900_000, 0, 0.55, []string{"ns1.dns.nl"})
	if err != nil {
		b.Fatal(err)
	}
	names := make([]string, 1024)
	for i := range names {
		names[i], _ = z.DomainName(i * 1000)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := z.Delegation(names[i%len(names)]); !ok {
			b.Fatal("miss")
		}
	}
}
