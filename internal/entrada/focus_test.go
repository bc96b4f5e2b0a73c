package entrada

import (
	"net/netip"
	"testing"
	"time"

	"dnscentral/internal/astrie"
	"dnscentral/internal/dnswire"
	"dnscentral/internal/layers"
	"dnscentral/internal/stats"
)

// TestWithFocusProviderSwitchesFigure5Target verifies the focus option:
// with focus=Google, Google resolvers (not Facebook's) populate the
// per-(client,server) Figure 5 dataset.
func TestWithFocusProviderSwitchesFigure5Target(t *testing.T) {
	reg := astrie.NewRegistry(2)
	an := NewAnalyzer(reg, WithFocusProvider(astrie.ProviderGoogle))
	server := netip.MustParseAddrPort("198.51.10.1:53")

	send := func(asn uint32, idx uint32) {
		client, err := reg.ResolverAddr(asn, false, false, idx)
		if err != nil {
			t.Fatal(err)
		}
		q := dnswire.NewQuery(uint16(idx), "d1.nl.", dnswire.TypeA)
		wire, _ := q.Pack()
		frame, err := layers.BuildUDP(netip.AddrPortFrom(client, 5000), server, wire)
		if err != nil {
			t.Fatal(err)
		}
		an.HandlePacket(time.Unix(0, 0), frame)
	}
	send(15169, 1) // Google
	send(32934, 2) // Facebook
	ag := an.Finish()
	if len(ag.FocusQueries) != 1 {
		t.Fatalf("focus rows = %d, want 1", len(ag.FocusQueries))
	}
	for k := range ag.FocusQueries {
		if reg.ProviderOf(k.Client) != astrie.ProviderGoogle {
			t.Fatalf("focus client %s is not Google", k.Client)
		}
	}
	if ag.String() == "" || stats.Ratio(ag.Valid, ag.Total) > 1 {
		t.Fatal("summary string broken")
	}
}
