package astrie

import (
	"math/rand"
	"net/netip"
	"testing"
	"testing/quick"
)

func TestTrieBasicLPM(t *testing.T) {
	var tr Trie
	ins := []struct {
		pfx string
		asn uint32
	}{
		{"10.0.0.0/8", 100},
		{"10.1.0.0/16", 200},
		{"10.1.2.0/24", 300},
		{"2001:db8::/32", 600},
		{"2001:db8:1::/48", 700},
	}
	for _, c := range ins {
		if err := tr.Insert(netip.MustParsePrefix(c.pfx), c.asn); err != nil {
			t.Fatal(err)
		}
	}
	if tr.Len() != len(ins) {
		t.Errorf("Len = %d", tr.Len())
	}
	cases := []struct {
		addr string
		asn  uint32
		ok   bool
	}{
		{"10.9.9.9", 100, true},
		{"10.1.9.9", 200, true},
		{"10.1.2.9", 300, true},
		{"11.0.0.1", 0, false},
		{"2001:db8::1", 600, true},
		{"2001:db8:1::1", 700, true},
		{"2001:db9::1", 0, false},
	}
	for _, c := range cases {
		asn, ok := tr.Lookup(netip.MustParseAddr(c.addr))
		if ok != c.ok || (ok && asn != c.asn) {
			t.Errorf("Lookup(%s) = %d,%v; want %d,%v", c.addr, asn, ok, c.asn, c.ok)
		}
	}
}

func TestTrieExactOverwrite(t *testing.T) {
	var tr Trie
	p := netip.MustParsePrefix("192.0.2.0/24")
	_ = tr.Insert(p, 1)
	_ = tr.Insert(p, 2)
	if tr.Len() != 1 {
		t.Errorf("Len = %d", tr.Len())
	}
	if asn, _ := tr.Lookup(netip.MustParseAddr("192.0.2.1")); asn != 2 {
		t.Errorf("asn = %d", asn)
	}
}

func TestTrieZeroBitsPrefix(t *testing.T) {
	var tr Trie
	_ = tr.Insert(netip.MustParsePrefix("0.0.0.0/0"), 42)
	if asn, ok := tr.Lookup(netip.MustParseAddr("203.0.113.7")); !ok || asn != 42 {
		t.Errorf("default route lookup = %d,%v", asn, ok)
	}
	// v6 default must not be affected by v4 default.
	if _, ok := tr.Lookup(netip.MustParseAddr("2001:db8::1")); ok {
		t.Error("v6 matched v4 default route")
	}
}

func TestTrieV4MappedV6Normalized(t *testing.T) {
	var tr Trie
	_ = tr.Insert(netip.MustParsePrefix("198.51.100.0/24"), 7)
	mapped := netip.AddrFrom16(netip.MustParseAddr("198.51.100.5").As16())
	if asn, ok := tr.Lookup(mapped); !ok || asn != 7 {
		t.Errorf("v4-mapped lookup = %d,%v", asn, ok)
	}
}

func TestTrieHostRoutes(t *testing.T) {
	var tr Trie
	_ = tr.Insert(netip.MustParsePrefix("192.0.2.1/32"), 9)
	if asn, ok := tr.Lookup(netip.MustParseAddr("192.0.2.1")); !ok || asn != 9 {
		t.Errorf("host route = %d,%v", asn, ok)
	}
	if _, ok := tr.Lookup(netip.MustParseAddr("192.0.2.2")); ok {
		t.Error("host route matched neighbor")
	}
}

func TestTrieInvalidPrefix(t *testing.T) {
	var tr Trie
	if err := tr.Insert(netip.Prefix{}, 1); err == nil {
		t.Error("invalid prefix accepted")
	}
}

// TestPropertyTrieMatchesLinearScan cross-checks the trie against a naive
// linear longest-prefix scan oracle on random prefix sets and probes.
func TestPropertyTrieMatchesLinearScan(t *testing.T) {
	cfg := &quick.Config{MaxCount: 60, Rand: rand.New(rand.NewSource(1))}
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		var tr Trie
		type entry struct {
			pfx netip.Prefix
			asn uint32
		}
		// Random prefixes; later duplicates overwrite earlier ones both in
		// the trie and (by map) in the oracle.
		oracle := make(map[netip.Prefix]uint32)
		n := 1 + r.Intn(60)
		for i := 0; i < n; i++ {
			var p netip.Prefix
			if r.Intn(2) == 0 {
				a := netip.AddrFrom4([4]byte{byte(r.Intn(256)), byte(r.Intn(256)), byte(r.Intn(256)), byte(r.Intn(256))})
				p = netip.PrefixFrom(a, r.Intn(33)).Masked()
			} else {
				var b [16]byte
				r.Read(b[:])
				p = netip.PrefixFrom(netip.AddrFrom16(b), r.Intn(129)).Masked()
			}
			asn := uint32(1 + r.Intn(1000))
			oracle[p] = asn
			if err := tr.Insert(p, asn); err != nil {
				return false
			}
		}
		entries := make([]entry, 0, len(oracle))
		for p, a := range oracle {
			entries = append(entries, entry{p, a})
		}
		// Probe with random addresses plus addresses inside known prefixes.
		for probe := 0; probe < 50; probe++ {
			var addr netip.Addr
			if probe%2 == 0 && len(entries) > 0 {
				base := entries[r.Intn(len(entries))].pfx.Addr()
				if base.Is4() {
					b := base.As4()
					b[3] ^= byte(r.Intn(4))
					addr = netip.AddrFrom4(b)
				} else {
					b := base.As16()
					b[15] ^= byte(r.Intn(4))
					addr = netip.AddrFrom16(b)
				}
			} else if r.Intn(2) == 0 {
				addr = netip.AddrFrom4([4]byte{byte(r.Intn(256)), byte(r.Intn(256)), byte(r.Intn(256)), byte(r.Intn(256))})
			} else {
				var b [16]byte
				r.Read(b[:])
				addr = netip.AddrFrom16(b)
			}
			// Oracle: longest containing prefix wins.
			bestBits := -1
			var bestASN uint32
			for _, e := range entries {
				if e.pfx.Contains(addr) && e.pfx.Bits() > bestBits {
					bestBits, bestASN = e.pfx.Bits(), e.asn
				}
			}
			asn, ok := tr.Lookup(addr)
			if ok != (bestBits >= 0) {
				return false
			}
			if ok && asn != bestASN {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

func BenchmarkTrieLookup(b *testing.B) {
	reg := NewRegistry(40000)
	asns := registeredASNs(reg)
	addrs := make([]netip.Addr, 1024)
	for i := range addrs {
		asn := asns[i%len(asns)]
		a, err := reg.ResolverAddr(asn, i%2 == 0, false, uint32(i))
		if err != nil {
			b.Fatal(err)
		}
		addrs[i] = a
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := reg.LookupAddr(addrs[i%len(addrs)]); !ok {
			b.Fatal("miss")
		}
	}
}

// refLPM is the reference the trie is held to: a list of prefixes,
// IPv4-mapped ones rewritten as IPv4, searched linearly.
type refLPM map[netip.Prefix]uint32

func normalizePrefix(p netip.Prefix) netip.Prefix {
	p = p.Masked()
	if p.Addr().Is4In6() {
		return netip.PrefixFrom(p.Addr().Unmap(), p.Bits()-96)
	}
	return p
}

func (ref refLPM) lookup(a netip.Addr) (uint32, bool) {
	a = a.Unmap()
	best, v := -1, uint32(0)
	for p, pv := range ref {
		if p.Bits() > best && p.Contains(a) {
			best, v = p.Bits(), pv
		}
	}
	return v, best >= 0
}

// fuzzAddr builds an address of one of three shapes from four fuzz bytes.
// IPv6 addresses vary only in their first two and last two bytes, so
// random prefixes overlap at every depth.
func fuzzAddr(shape byte, b []byte) netip.Addr {
	switch shape % 3 {
	case 0:
		return netip.AddrFrom4([4]byte{b[0], b[1], b[2], b[3]})
	case 1:
		var a [16]byte
		a[0], a[1], a[14], a[15] = b[0], b[1], b[2], b[3]
		return netip.AddrFrom16(a)
	}
	return netip.AddrFrom16(netip.AddrFrom4([4]byte{b[0], b[1], b[2], b[3]}).As16())
}

// FuzzTrieLPM runs the trie against refLPM. Each 6-byte record of the
// input is an insert — shape, prefix length, four address bytes — or,
// when the shape byte has bit 7 set, a probe address. Every probe, every
// inserted prefix's first address and its neighbours on both sides must
// resolve as the reference does, and Len must count distinct prefixes.
// Records past the 64th are ignored: a deep IPv6 prefix costs the trie
// up to 15 nodes, and the reference is a linear scan.
func FuzzTrieLPM(f *testing.F) {
	f.Add([]byte{
		0, 0, 0, 0, 0, 0, // 0.0.0.0/0
		1, 0, 0, 0, 0, 0, // ::/0
		0, 8, 10, 0, 0, 0, // 10.0.0.0/8
		0, 24, 10, 1, 2, 0, // 10.1.2.0/24
		0, 32, 10, 1, 2, 3, // 10.1.2.3/32
		0, 24, 10, 1, 2, 0, // 10.1.2.0/24 again: overwrite
		0x80, 0, 10, 1, 2, 4, // probe 10.1.2.4
	})
	f.Add([]byte{
		1, 16, 0x2a, 0, 0, 0, // 2a00::/16
		1, 128, 0x2a, 0, 0, 1, // 2a00::1/128
		1, 127, 0x2a, 0, 0, 1, // 2a00::/127
		2, 104, 192, 0, 2, 0, // ::ffff:192.0.2.0/104 → 192.0.2.0/8
		2, 128, 192, 0, 2, 1, // ::ffff:192.0.2.1/128 → host route
		2, 40, 1, 2, 3, 4, // ::ffff:1.2.3.4/40 → a plain IPv6 prefix
		0x82, 0, 192, 0, 2, 1, // probe ::ffff:192.0.2.1
		0x81, 0, 0x2a, 0, 0, 2, // probe 2a00::2
	})
	f.Add([]byte{
		0, 17, 1, 128, 0, 0, 0, 15, 1, 0, 0, 0, 0, 16, 1, 1, 0, 0,
		0, 9, 1, 0, 0, 0, 0, 33, 5, 5, 5, 5, 1, 5, 0xff, 0, 0, 0,
	})
	f.Fuzz(func(t *testing.T, data []byte) {
		var tr Trie
		ref := refLPM{}
		var probes []netip.Addr
		for i := 0; i+6 <= len(data) && i < 64*6; i += 6 {
			shape, bits, ab := data[i], data[i+1], data[i+2:i+6]
			a := fuzzAddr(shape&0x7f, ab)
			if shape&0x80 != 0 {
				probes = append(probes, a)
				continue
			}
			p := netip.PrefixFrom(a, int(bits)%(a.BitLen()+1))
			v := uint32(i)
			if err := tr.Insert(p, v); err != nil {
				t.Fatalf("Insert(%s): %v", p, err)
			}
			np := normalizePrefix(p)
			ref[np] = v
			first := np.Addr()
			probes = append(probes, a, first, first.Prev(), first.Next())
		}
		if tr.Len() != len(ref) {
			t.Fatalf("Len = %d, want %d distinct prefixes", tr.Len(), len(ref))
		}
		for _, a := range probes {
			if !a.IsValid() {
				continue
			}
			for _, a := range []netip.Addr{a, netip.AddrFrom16(a.As16())} {
				got, ok := tr.Lookup(a)
				want, wok := ref.lookup(a)
				if ok != wok || got != want {
					t.Fatalf("Lookup(%s) = %d,%v; reference %d,%v", a, got, ok, want, wok)
				}
			}
		}
	})
}
