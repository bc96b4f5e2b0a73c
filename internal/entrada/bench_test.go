package entrada

import (
	"fmt"
	"net/netip"
	"testing"
	"time"

	"dnscentral/internal/astrie"
	"dnscentral/internal/dnswire"
	"dnscentral/internal/layers"
)

// BenchmarkAnalyzerUDPPacket measures the full per-packet cost of the
// analyzer's UDP path — Ethernet/IP/UDP parse, DNS decode, query/response
// join, aggregation — one packet per op, alternating queries and their
// responses so the pending table stays in steady state.
func BenchmarkAnalyzerUDPPacket(b *testing.B) {
	reg := astrie.NewRegistry(2)
	pairs, total := udpPairs(b, func(i int) netip.Addr {
		return netip.AddrFrom4([4]byte{198, 51, byte(i >> 4), byte(100 + i&0xF)})
	})
	ts := time.Unix(1_600_000_000, 0)

	an := NewAnalyzer(reg)
	// Warm every map to steady state before measuring.
	for _, p := range pairs {
		an.HandlePacket(ts, p.q)
		an.HandlePacket(ts, p.r)
	}
	b.ReportAllocs()
	b.SetBytes(int64(total / (2 * len(pairs))))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := &pairs[(i/2)%len(pairs)]
		if i%2 == 0 {
			an.HandlePacket(ts, p.q)
		} else {
			an.HandlePacket(ts, p.r)
		}
	}
	b.StopTimer()
	if an.MalformedPackets != 0 {
		b.Fatalf("benchmark fed %d malformed packets", an.MalformedPackets)
	}
}

// udpPair is one UDP query frame and the response frame that answers it.
type udpPair struct{ q, r []byte }

// udpPairs builds 256 query/response pairs from client(i) to a server,
// each with its own source port, id and qname, and their total frame size.
func udpPairs(tb testing.TB, client func(i int) netip.Addr) ([]udpPair, int) {
	server4 := netip.MustParseAddrPort("192.0.2.1:53")
	server6 := netip.MustParseAddrPort("[2001:db8::1]:53")
	pairs := make([]udpPair, 256)
	var total int
	for i := range pairs {
		src := netip.AddrPortFrom(client(i), uint16(40000+i))
		server := server4
		if src.Addr().Is6() {
			server = server6
		}
		name := fmt.Sprintf("host-%03d.example.nl.", i)
		msg := dnswire.NewQuery(uint16(i+1), name, dnswire.TypeA).WithEdns(1232, true)
		qp, err := msg.Pack()
		if err != nil {
			tb.Fatal(err)
		}
		rp, err := msg.Reply().Pack()
		if err != nil {
			tb.Fatal(err)
		}
		qf, err := layers.BuildUDP(src, server, qp)
		if err != nil {
			tb.Fatal(err)
		}
		rf, err := layers.BuildUDP(server, src, rp)
		if err != nil {
			tb.Fatal(err)
		}
		pairs[i] = udpPair{q: qf, r: rf}
		total += len(qf) + len(rf)
	}
	return pairs, total
}

// TestAnalyzerUDPPairZeroAllocs is BenchmarkAnalyzerUDPPacket's allocation
// figure as a gate: once a source is in the source table, a UDP query and
// its response cost the analyzer no allocation, for cloud, public,
// long-tail and unregistered sources alike.
func TestAnalyzerUDPPairZeroAllocs(t *testing.T) {
	reg := astrie.NewRegistry(100)
	var asns []uint32
	for _, p := range astrie.CloudProviders {
		asns = append(asns, astrie.ProviderASNs[p]...)
	}
	for i := range 100 {
		asns = append(asns, astrie.LongTailASNBase+uint32(i))
	}
	pairs, _ := udpPairs(t, func(i int) netip.Addr {
		if i%16 == 0 {
			return netip.AddrFrom4([4]byte{198, 51, 100, byte(i)})
		}
		a, err := reg.ResolverAddr(asns[i%len(asns)], i%3 == 0, i%5 == 0, uint32(i))
		if err != nil {
			t.Fatal(err)
		}
		return a
	})
	ts := time.Unix(1_600_000_000, 0)
	an := NewAnalyzer(reg, WithZoneOrigin("nl"))
	for _, p := range pairs {
		an.HandlePacket(ts, p.q)
		an.HandlePacket(ts, p.r)
	}
	i := 0
	allocs := testing.AllocsPerRun(1000, func() {
		p := &pairs[i%len(pairs)]
		i++
		an.HandlePacket(ts, p.q)
		an.HandlePacket(ts, p.r)
	})
	if allocs != 0 {
		t.Errorf("warmed UDP query/response pair: %.2f allocs, want 0", allocs)
	}
	ag := an.Finish()
	if an.MalformedPackets != 0 || an.UnmatchedResp != 0 || len(ag.AllResolvers) != len(pairs) {
		t.Fatalf("malformed %d, unmatched %d, resolvers %d; want 0, 0, %d",
			an.MalformedPackets, an.UnmatchedResp, len(ag.AllResolvers), len(pairs))
	}
}
