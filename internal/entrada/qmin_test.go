package entrada

import (
	"testing"
	"time"

	"dnscentral/internal/astrie"
	"dnscentral/internal/cloudmodel"
	"dnscentral/internal/dnswire"
	"dnscentral/internal/stats"
	"dnscentral/internal/workload"
)

// runPipelineWithOrigin is runPipeline with the Q-min heuristic enabled.
func runPipelineWithOrigin(t *testing.T, cfg workload.Config, origin string) *Aggregates {
	t.Helper()
	g, err := workload.NewGenerator(cfg)
	if err != nil {
		t.Fatal(err)
	}
	an := NewAnalyzer(g.Registry(), WithZoneOrigin(origin))
	if _, err := g.Run(sinkFor(an)); err != nil {
		t.Fatal(err)
	}
	return an.Finish()
}

type analyzerSink struct{ an *Analyzer }

func sinkFor(an *Analyzer) analyzerSink { return analyzerSink{an} }

func (s analyzerSink) WritePacket(ts time.Time, data []byte) error {
	s.an.HandlePacket(ts, data)
	return nil
}

func TestMinimizedShareTracksQminDeployment(t *testing.T) {
	before := runPipelineWithOrigin(t, workload.Config{
		Vantage: cloudmodel.VantageNL, Week: cloudmodel.W2018,
		TotalQueries: 10000, Seed: 61, ResolverScale: 0.002,
	}, "nl.")
	after := runPipelineWithOrigin(t, workload.Config{
		Vantage: cloudmodel.VantageNL, Week: cloudmodel.W2020,
		TotalQueries: 10000, Seed: 61, ResolverScale: 0.002,
	}, "nl.")

	g18 := before.Provider(astrie.ProviderGoogle)
	g20 := after.Provider(astrie.ProviderGoogle)
	m18 := stats.Ratio(g18.MinimizedQueries, g18.Queries)
	m20 := stats.Ratio(g20.MinimizedQueries, g20.Queries)
	if m18 > 0.1 {
		t.Errorf("2018 Google minimized share = %.3f, want ≈0", m18)
	}
	if m20 < 0.7 {
		t.Errorf("2020 Google minimized share = %.3f, want ≫0.7", m20)
	}
	// Microsoft never minimizes; the small residue is the heuristic's
	// noise floor (classic resolvers legitimately ask NS for delegation
	// names now and then), just as in the real measurement.
	ms20 := after.Provider(astrie.ProviderMicrosoft)
	if share := stats.Ratio(ms20.MinimizedQueries, ms20.Queries); share > 0.05 {
		t.Errorf("Microsoft minimized share = %.3f, want ≲0.03", share)
	}
}

func TestMinimizedHeuristicDirect(t *testing.T) {
	reg := astrie.NewRegistry(2)
	an := NewAnalyzer(reg, WithZoneOrigin("nz."))
	cases := []struct {
		name string
		typ  dnswire.Type
		want bool
	}{
		{"d5.nz.", dnswire.TypeNS, true},         // second-level probe
		{"d5000.co.nz.", dnswire.TypeNS, true},   // third-level probe
		{"www.d5.co.nz.", dnswire.TypeNS, false}, // too deep
		{"d5.nz.", dnswire.TypeA, false},         // wrong type
		{"nz.", dnswire.TypeNS, false},           // apex
		{"example.com.", dnswire.TypeNS, false},  // out of zone
	}
	for _, c := range cases {
		got := an.looksMinimized(dnswire.Question{Name: c.name, Type: c.typ, Class: dnswire.ClassIN})
		if got != c.want {
			t.Errorf("looksMinimized(%s %s) = %v, want %v", c.name, c.typ, got, c.want)
		}
	}
	// Disabled without an origin.
	plain := NewAnalyzer(reg)
	if plain.looksMinimized(dnswire.Question{Name: "d5.nz.", Type: dnswire.TypeNS}) {
		t.Error("heuristic active without origin")
	}
}

// TestLabelCountMatchesDNSWire: the analyzer's allocation-free label count
// must agree with dnswire.CountLabels on every shape of name.
func TestLabelCountMatchesDNSWire(t *testing.T) {
	for _, name := range []string{
		"", ".", "nl", "nl.", "NL.", "d5.nz.", "www.Example.NL", "a.b.c.d.e.f.nl.",
		"a..b.", "..", "x.", `weird\.label.nl.`, "_dmarc.d1.nl.",
	} {
		if got, want := labelCount(name), dnswire.CountLabels(name); got != want {
			t.Errorf("labelCount(%q) = %d, dnswire.CountLabels = %d", name, got, want)
		}
	}
}
