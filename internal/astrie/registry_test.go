package astrie

import (
	"fmt"
	"net/netip"
	"runtime"
	"slices"
	"sync"
	"testing"
)

func TestProviderASNsMatchTable1(t *testing.T) {
	counts := map[Provider]int{
		ProviderGoogle:     1,
		ProviderAmazon:     5,
		ProviderMicrosoft:  12,
		ProviderFacebook:   1,
		ProviderCloudflare: 1,
	}
	total := 0
	for p, want := range counts {
		if got := len(ProviderASNs[p]); got != want {
			t.Errorf("%s has %d ASes, want %d", p, got, want)
		}
		total += counts[p]
	}
	if total != 20 {
		t.Errorf("total provider ASes = %d, want 20 (paper: 'their 20 ASes')", total)
	}
	// Spot-check well-known ASNs from Table 1.
	if ProviderASNs[ProviderGoogle][0] != 15169 {
		t.Error("Google ASN != 15169")
	}
	if ProviderASNs[ProviderCloudflare][0] != 13335 {
		t.Error("Cloudflare ASN != 13335")
	}
	if ProviderASNs[ProviderFacebook][0] != 32934 {
		t.Error("Facebook ASN != 32934")
	}
}

// registeredASNs returns every ASN reg registers, in ascending order.
func registeredASNs(reg *Registry) []uint32 {
	asns := make([]uint32, reg.NumASes())
	for o := range asns {
		asns[o] = reg.asnOf(o)
	}
	slices.Sort(asns)
	return asns
}

func TestRegistryClassification(t *testing.T) {
	reg := NewRegistry(100)
	if reg.NumASes() != 120 {
		t.Fatalf("NumASes = %d", reg.NumASes())
	}
	for _, p := range CloudProviders {
		for _, asn := range ProviderASNs[p] {
			for _, v6 := range []bool{false, true} {
				a, err := reg.ResolverAddr(asn, v6, false, 7)
				if err != nil {
					t.Fatalf("ResolverAddr(%d): %v", asn, err)
				}
				gotASN, ok := reg.LookupAddr(a)
				if !ok || gotASN != asn {
					t.Errorf("LookupAddr(%s) = %d,%v; want %d", a, gotASN, ok, asn)
				}
				if got := reg.ProviderOf(a); got != p {
					t.Errorf("ProviderOf(%s) = %s, want %s", a, got, p)
				}
			}
		}
	}
}

func TestLongTailIsOther(t *testing.T) {
	reg := NewRegistry(50)
	asn := LongTailASNBase + 10
	a, err := reg.ResolverAddr(asn, false, false, 1)
	if err != nil {
		t.Fatal(err)
	}
	if p := reg.ProviderOf(a); p != ProviderOther {
		t.Errorf("long tail classified as %s", p)
	}
	if info, ok := reg.Info(asn); !ok || info.Provider != ProviderOther {
		t.Errorf("Info(%d) = %+v, %v", asn, info, ok)
	}
	if _, ok := reg.Info(999999); ok {
		t.Error("unknown ASN has an entry")
	}
}

func TestResolverAddrDistinct(t *testing.T) {
	reg := NewRegistry(10)
	seen := make(map[netip.Addr]bool)
	for idx := uint32(0); idx < 100; idx++ {
		for _, v6 := range []bool{false, true} {
			for _, pub := range []bool{false, true} {
				a, err := reg.ResolverAddr(15169, v6, pub, idx)
				if err != nil {
					t.Fatal(err)
				}
				if seen[a] {
					t.Fatalf("duplicate address %s (idx=%d v6=%v pub=%v)", a, idx, v6, pub)
				}
				seen[a] = true
			}
		}
	}
}

func TestPublicDNSAddrFlag(t *testing.T) {
	reg := NewRegistry(10)
	for _, v6 := range []bool{false, true} {
		pub, err := reg.ResolverAddr(15169, v6, true, 3)
		if err != nil {
			t.Fatal(err)
		}
		priv, err := reg.ResolverAddr(15169, v6, false, 3)
		if err != nil {
			t.Fatal(err)
		}
		if !reg.IsPublicDNSAddr(pub) {
			t.Errorf("public addr %s not detected", pub)
		}
		if reg.IsPublicDNSAddr(priv) {
			t.Errorf("private addr %s detected as public", priv)
		}
	}
	// Unregistered addresses are never public.
	if reg.IsPublicDNSAddr(netip.MustParseAddr("203.0.113.200")) {
		t.Error("unknown address reported public")
	}
}

func TestResolverAddrLimits(t *testing.T) {
	reg := NewRegistry(0)
	if _, err := reg.ResolverAddr(15169, false, false, 1<<15); err == nil {
		t.Error("oversized IPv4 index accepted")
	}
	if _, err := reg.ResolverAddr(424242, false, false, 0); err == nil {
		t.Error("unknown ASN accepted")
	}
	// IPv6 has no such limit.
	if _, err := reg.ResolverAddr(15169, true, false, 1<<20); err != nil {
		t.Errorf("IPv6 large index rejected: %v", err)
	}
}

func TestRegistryDeterministic(t *testing.T) {
	a := NewRegistry(500)
	b := NewRegistry(500)
	for _, asn := range registeredASNs(a) {
		ia, _ := a.Info(asn)
		ib, ok := b.Info(asn)
		if !ok || ia.V4 != ib.V4 || ia.V6 != ib.V6 || ia.Provider != ib.Provider {
			t.Fatalf("registry not deterministic for AS%d", asn)
		}
	}
}

func TestRegistryScalesToPaperSize(t *testing.T) {
	// Paper sees 37k-52k ASes; the allocator must handle that.
	reg := NewRegistry(51200 - 20)
	if reg.NumASes() != 51200 {
		t.Fatalf("NumASes = %d", reg.NumASes())
	}
	// All allocations must be unique.
	seen4 := make(map[netip.Prefix]uint32)
	for _, asn := range registeredASNs(reg) {
		info, _ := reg.Info(asn)
		if prev, dup := seen4[info.V4]; dup {
			t.Fatalf("AS%d and AS%d share v4 prefix %v", prev, asn, info.V4)
		}
		seen4[info.V4] = asn
	}
}

func TestProviderString(t *testing.T) {
	if ProviderGoogle.String() != "Google" || ProviderOther.String() != "Other" {
		t.Error("provider names wrong")
	}
	if !ProviderAmazon.IsCloud() || ProviderOther.IsCloud() {
		t.Error("IsCloud wrong")
	}
}

// legacyInfo is the registry entry as the allocation scheme defines it:
// the ordinal-th /16 of the allowed unicast space and the ordinal-th /32
// under 2a00::/13, named after the provider for Table-1 ASes.
func legacyInfo(ordinal int, asn uint32, p Provider) ASInfo {
	first := allowedFirstOctets[ordinal/256]
	v4 := netip.PrefixFrom(netip.AddrFrom4([4]byte{first, byte(ordinal % 256), 0, 0}), 16)
	var b16 [16]byte
	b16[0], b16[1] = 0x2a, byte(ordinal/65536)
	b16[2], b16[3] = byte(ordinal>>8), byte(ordinal)
	v6 := netip.PrefixFrom(netip.AddrFrom16(b16), 32)
	name := fmt.Sprintf("AS%d", asn)
	if p != ProviderOther {
		name = fmt.Sprintf("%s-AS%d", p, asn)
	}
	return ASInfo{ASN: asn, Name: name, Provider: p, V4: v4, V6: v6}
}

// TestRegistryRoundTripEveryOrdinal walks every AS of the largest registry:
// each synthetic resolver address must classify back to its AS, provider
// and public flag, through every lookup entry point, and Info must agree
// with the allocation scheme.
func TestRegistryRoundTripEveryOrdinal(t *testing.T) {
	reg := NewRegistry(MaxASes - 20)
	if reg.NumASes() != MaxASes {
		t.Fatalf("NumASes = %d, want %d", reg.NumASes(), MaxASes)
	}
	ordinal := 0
	check := func(asn uint32, p Provider) {
		t.Helper()
		info, ok := reg.Info(asn)
		if !ok || *info != legacyInfo(ordinal, asn, p) {
			t.Fatalf("Info(%d) = %+v, %v; want %+v", asn, info, ok, legacyInfo(ordinal, asn, p))
		}
		for _, v6 := range []bool{false, true} {
			for _, public := range []bool{false, true} {
				idx := uint32(ordinal) % (1 << 15)
				a, err := reg.ResolverAddr(asn, v6, public, idx)
				if err != nil {
					t.Fatal(err)
				}
				pfx := info.V4
				if v6 {
					pfx = info.V6
				}
				if !pfx.Contains(a) {
					t.Fatalf("ResolverAddr(%d, v6=%v) = %s outside %s", asn, v6, a, pfx)
				}
				probes := []netip.Addr{a}
				if !v6 {
					probes = append(probes, netip.AddrFrom16(a.As16()))
				}
				for _, a := range probes {
					if got, ok := reg.LookupAddr(a); !ok || got != asn {
						t.Fatalf("LookupAddr(%s) = %d,%v; want %d", a, got, ok, asn)
					}
					if got := reg.ProviderOf(a); got != p {
						t.Fatalf("ProviderOf(%s) = %s, want %s", a, got, p)
					}
					if got := reg.IsPublicDNSAddr(a); got != public {
						t.Fatalf("IsPublicDNSAddr(%s) = %v, want %v", a, got, public)
					}
					c := reg.Classify(a)
					if c != (Class{ASN: asn, Known: true, Provider: p, Public: public}) {
						t.Fatalf("Classify(%s) = %+v", a, c)
					}
				}
			}
		}
		ordinal++
	}
	for _, p := range CloudProviders {
		for _, asn := range ProviderASNs[p] {
			check(asn, p)
		}
	}
	for i := 0; i < MaxASes-20; i++ {
		check(LongTailASNBase+uint32(i), ProviderOther)
	}
	for _, a := range []string{"10.0.0.1", "0.0.0.0", "224.0.0.1", "2a00:d800::1", "2001:db8::1", "::"} {
		addr := netip.MustParseAddr(a)
		if c := reg.Classify(addr); c != (Class{}) {
			t.Errorf("Classify(%s) = %+v, want unknown", a, c)
		}
	}
	if _, ok := reg.Info(LongTailASNBase + uint32(MaxASes)); ok {
		t.Error("Info past the long tail succeeded")
	}
}

// TestNewRegistryCompact pins the registry's footprint: a fixed number of
// allocations however many ASes it holds, and a small live heap. A normal
// build makes 5; a race-detector build makes a few more temporaries.
func TestNewRegistryCompact(t *testing.T) {
	allocs := testing.AllocsPerRun(3, func() { NewRegistry(MaxASes - 20) })
	if allocs > 16 {
		t.Errorf("NewRegistry(MaxASes-20) made %.0f allocations, want ≤ 16", allocs)
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	reg := NewRegistry(MaxASes - 20)
	runtime.GC()
	runtime.ReadMemStats(&after)
	live := int64(after.HeapAlloc) - int64(before.HeapAlloc)
	if live > 2<<20 {
		t.Errorf("NewRegistry(MaxASes-20) holds %d bytes live, want < 2 MiB", live)
	}
	t.Logf("%.0f allocations, %d bytes live", allocs, live)
	runtime.KeepAlive(reg)
}

// TestRegistryConcurrentReaders shares one registry between goroutines the
// way the analyzer's shards do; run under -race it checks that lookups
// only read.
func TestRegistryConcurrentReaders(t *testing.T) {
	reg := NewRegistry(1000)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i, asn := range registeredASNs(reg) {
				a, err := reg.ResolverAddr(asn, (i+g)%2 == 0, false, uint32(g))
				if err != nil {
					t.Error(err)
					return
				}
				o, _ := reg.ordinalOf(asn)
				if c := reg.Classify(a); c.ASN != asn || c.Provider != reg.providerAt(o) {
					t.Errorf("Classify(%s) = %+v, want AS%d", a, c, asn)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

func BenchmarkNewRegistry(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		NewRegistry(MaxASes - 20)
	}
}

func BenchmarkRegistryClassify(b *testing.B) {
	reg := NewRegistry(MaxASes - 20)
	asns := registeredASNs(reg)
	addrs := make([]netip.Addr, 4096)
	for i := range addrs {
		a, err := reg.ResolverAddr(asns[(i*7919)%len(asns)], i%4 == 0, i%8 == 0, uint32(i))
		if err != nil {
			b.Fatal(err)
		}
		addrs[i] = a
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if c := reg.Classify(addrs[i%len(addrs)]); !c.Known {
			b.Fatal("miss")
		}
	}
}
