package entrada

import (
	"bytes"
	"math"
	"net/netip"
	"testing"
	"time"

	"dnscentral/internal/astrie"
	"dnscentral/internal/cloudmodel"
	"dnscentral/internal/dnswire"
	"dnscentral/internal/layers"
	"dnscentral/internal/pcapio"
	"dnscentral/internal/stats"
	"dnscentral/internal/workload"
)

// runPipeline generates a trace and analyzes it end to end through pcap.
func runPipeline(t *testing.T, cfg workload.Config) (*workload.Generator, *workload.GroundTruth, *Aggregates) {
	g, gt, ag, _ := runPipelineFull(t, cfg)
	_ = ag
	return g, gt, ag
}

func runPipelineFull(t *testing.T, cfg workload.Config) (*workload.Generator, *workload.GroundTruth, *Aggregates, *Analyzer) {
	t.Helper()
	g, err := workload.NewGenerator(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	w := pcapio.NewWriter(&buf, pcapio.WithNanosecondResolution())
	gt, err := g.Run(w)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	r, err := pcapio.NewReader(&buf)
	if err != nil {
		t.Fatal(err)
	}
	an := NewAnalyzer(g.Registry())
	if err := an.AnalyzeReader(r); err != nil {
		t.Fatal(err)
	}
	return g, gt, an.Finish(), an
}

func TestPipelineMatchesGroundTruth(t *testing.T) {
	_, gt, ag, an := runPipelineFull(t, workload.Config{
		Vantage: cloudmodel.VantageNL, Week: cloudmodel.W2020,
		TotalQueries: 8000, Seed: 21, ResolverScale: 0.002,
	})
	if ag.Total != gt.Queries {
		t.Fatalf("analyzer total %d != ground truth %d", ag.Total, gt.Queries)
	}
	for _, p := range astrie.CloudProviders {
		pa := ag.Provider(p)
		if pa.Queries != gt.ByProvider[p] {
			t.Errorf("%s: analyzer %d != truth %d", p, pa.Queries, gt.ByProvider[p])
		}
		if pa.V6 != gt.V6Queries[p] {
			t.Errorf("%s v6: analyzer %d != truth %d", p, pa.V6, gt.V6Queries[p])
		}
		if pa.TCP != gt.TCPQueries[p] {
			t.Errorf("%s tcp: analyzer %d != truth %d", p, pa.TCP, gt.TCPQueries[p])
		}
		if pa.Junk != gt.JunkQueries[p] {
			t.Errorf("%s junk: analyzer %d != truth %d", p, pa.Junk, gt.JunkQueries[p])
		}
	}
	// Resolver sets must match exactly.
	if len(ag.AllResolvers) != len(gt.ResolverSet) {
		t.Errorf("resolvers: analyzer %d != truth %d", len(ag.AllResolvers), len(gt.ResolverSet))
	}
	for a := range gt.ResolverSet {
		if _, ok := ag.AllResolvers[a]; !ok {
			t.Errorf("resolver %s missed by analyzer", a)
		}
	}
	// Query type counts.
	for typ, c := range gt.ByType {
		var got uint64
		for _, pa := range ag.ByProvider {
			got += pa.ByType[typ]
		}
		if got != c {
			t.Errorf("type %s: analyzer %d != truth %d", typ, got, c)
		}
	}
	if an.MalformedPackets != 0 {
		t.Errorf("malformed packets: %d", an.MalformedPackets)
	}
}

func TestPipelineJunkShareMatchesModel(t *testing.T) {
	_, _, ag := runPipeline(t, workload.Config{
		Vantage: cloudmodel.VantageNZ, Week: cloudmodel.W2020,
		TotalQueries: 12000, Seed: 22, ResolverScale: 0.002,
	})
	vw, _ := cloudmodel.Get(cloudmodel.VantageNZ, cloudmodel.W2020)
	got := stats.Ratio(ag.Valid, ag.Total)
	if math.Abs(got-vw.ValidShare) > 0.03 {
		t.Errorf("valid share = %.3f, model %.3f", got, vw.ValidShare)
	}
}

func TestPipelineTruncationRatios(t *testing.T) {
	_, _, ag := runPipeline(t, workload.Config{
		Vantage: cloudmodel.VantageNL, Week: cloudmodel.W2020,
		TotalQueries: 20000, Seed: 23, ResolverScale: 0.002,
	})
	fb := ag.Provider(astrie.ProviderFacebook)
	google := ag.Provider(astrie.ProviderGoogle)
	fbTrunc := stats.Ratio(fb.TruncatedUDP, fb.UDPResponses)
	gTrunc := stats.Ratio(google.TruncatedUDP, google.UDPResponses)
	if fbTrunc < 0.05 {
		t.Errorf("Facebook truncation = %.4f, want ≳0.1 (paper 0.1716)", fbTrunc)
	}
	if gTrunc > 0.005 {
		t.Errorf("Google truncation = %.4f, want ≈0.0004", gTrunc)
	}
}

func TestPipelineEDNSCDF(t *testing.T) {
	_, _, ag := runPipeline(t, workload.Config{
		Vantage: cloudmodel.VantageNL, Week: cloudmodel.W2020,
		TotalQueries: 20000, Seed: 24, ResolverScale: 0.002,
	})
	fb := ag.Provider(astrie.ProviderFacebook)
	cdf := fb.EDNSSizes.CDF()
	at512 := stats.CDFAt(cdf, 512)
	if math.Abs(at512-0.30) > 0.06 {
		t.Errorf("Facebook EDNS CDF at 512 = %.3f, want ≈0.30 (Figure 6)", at512)
	}
	google := ag.Provider(astrie.ProviderGoogle)
	gAt1232 := stats.CDFAt(google.EDNSSizes.CDF(), 1232)
	if math.Abs(gAt1232-0.24) > 0.06 {
		t.Errorf("Google EDNS CDF at 1232 = %.3f, want ≈0.24 (Figure 6)", gAt1232)
	}
}

func TestPipelineRTTAndFocus(t *testing.T) {
	g, _, ag := runPipeline(t, workload.Config{
		Vantage: cloudmodel.VantageNL, Week: cloudmodel.W2020,
		TotalQueries: 20000, Seed: 25, ResolverScale: 0.002,
	})
	if len(ag.FocusQueries) == 0 {
		t.Fatal("no focus (Facebook) per-client data")
	}
	if len(ag.RTTs) == 0 {
		t.Fatal("no TCP handshake RTTs measured")
	}
	// All focus clients must be Facebook's.
	reg := g.Registry()
	for k := range ag.FocusQueries {
		if reg.ProviderOf(k.Client) != astrie.ProviderFacebook {
			t.Fatalf("focus client %s not Facebook", k.Client)
		}
	}
	// Median RTTs must be in the site model's range (≈8–260ms ± factors).
	for k, m := range ag.MedianRTTs() {
		if m < time.Millisecond || m > 800*time.Millisecond {
			t.Errorf("median RTT %v for %v out of range", m, k)
		}
	}
}

func TestAnalyzerToleratesGarbage(t *testing.T) {
	reg := astrie.NewRegistry(10)
	an := NewAnalyzer(reg)
	an.HandlePacket(time.Now(), []byte{1, 2, 3})
	an.HandlePacket(time.Now(), nil)
	ag := an.Finish()
	if ag.Total != 0 || an.MalformedPackets != 2 {
		t.Errorf("total=%d malformed=%d", ag.Total, an.MalformedPackets)
	}
}

func TestUnansweredQueriesCountAsValid(t *testing.T) {
	reg := astrie.NewRegistry(10)
	an := NewAnalyzer(reg)
	// Build a lone UDP query frame by hand.
	asn := astrie.ProviderASNs[astrie.ProviderMicrosoft][0]
	client, _ := reg.ResolverAddr(asn, false, false, 1)
	q := dnswire.NewQuery(9, "x.nl.", dnswire.TypeA)
	wire, _ := q.Pack()
	frame := buildUDPFrame(t, client.String()+":5000", "198.51.10.1:53", wire)
	an.HandlePacket(time.Now(), frame)
	ag := an.Finish()
	if ag.Total != 1 || ag.Valid != 1 {
		t.Errorf("total=%d valid=%d", ag.Total, ag.Valid)
	}
}

func TestReportRoundTrip(t *testing.T) {
	g, _, ag := runPipeline(t, workload.Config{
		Vantage: cloudmodel.VantageNZ, Week: cloudmodel.W2019,
		TotalQueries: 4000, Seed: 26, ResolverScale: 0.002,
	})
	rep := BuildReport(ag, g.Registry())
	if rep.TotalQueries != ag.Total {
		t.Fatal("report total mismatch")
	}
	var buf bytes.Buffer
	if err := rep.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := ReadReport(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.TotalQueries != rep.TotalQueries || len(back.Providers) != len(rep.Providers) {
		t.Fatal("JSON round trip lost data")
	}
	if back.Providers["Google"].Queries == 0 {
		t.Fatal("Google missing from report")
	}
}

func TestGooglePublicSplit(t *testing.T) {
	g, _, ag := runPipeline(t, workload.Config{
		Vantage: cloudmodel.VantageNL, Week: cloudmodel.W2020,
		TotalQueries: 20000, Seed: 27, ResolverScale: 0.002,
	})
	google := ag.Provider(astrie.ProviderGoogle)
	pubShare := stats.Ratio(google.PublicDNSQueries, google.Queries)
	if math.Abs(pubShare-0.865) > 0.05 {
		t.Errorf("Google public-DNS query share = %.3f, want ≈0.865 (Table 4)", pubShare)
	}
	rc := google.ResolverCounts(g.Registry().IsPublicDNSAddr)
	pubResolvers := float64(rc.Public) / float64(rc.Total)
	if math.Abs(pubResolvers-0.156) > 0.08 {
		t.Errorf("Google public resolver fraction = %.3f, want ≈0.156 (Table 4)", pubResolvers)
	}
}

func TestTable6ResolverFamilySplit(t *testing.T) {
	g, _, ag := runPipeline(t, workload.Config{
		Vantage: cloudmodel.VantageNL, Week: cloudmodel.W2020,
		TotalQueries: 60000, Seed: 28, ResolverScale: 0.01,
	})
	_ = g
	amazon := ag.Provider(astrie.ProviderAmazon).ResolverCounts(nil)
	if amazon.Total < 100 {
		t.Fatalf("too few Amazon resolvers (%d) for a meaningful split", amazon.Total)
	}
	v6frac := float64(amazon.V6) / float64(amazon.Total)
	if v6frac > 0.06 {
		t.Errorf("Amazon IPv6 resolver fraction = %.3f, want ≈0.018 (Table 6)", v6frac)
	}
	ms := ag.Provider(astrie.ProviderMicrosoft).ResolverCounts(nil)
	if ms.V6 == 0 {
		t.Log("note: Microsoft v6 resolvers exist but send no queries (Table 6 vs Table 5)")
	}
}

// buildUDPFrame is a tiny helper around layers for hand-made packets.
func buildUDPFrame(t *testing.T, src, dst string, payload []byte) []byte {
	t.Helper()
	frame, err := layers.BuildUDP(netip.MustParseAddrPort(src), netip.MustParseAddrPort(dst), payload)
	if err != nil {
		t.Fatal(err)
	}
	return frame
}
