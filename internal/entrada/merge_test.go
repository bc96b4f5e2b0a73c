package entrada

import (
	"bytes"
	"io"
	"testing"

	"dnscentral/internal/astrie"
	"dnscentral/internal/cloudmodel"
	"dnscentral/internal/pcapio"
	"dnscentral/internal/workload"
)

// TestShardedAnalysisMatchesSingle splits one pcap into two halves,
// analyzes them independently, merges, and compares against the
// single-analyzer result.
func TestShardedAnalysisMatchesSingle(t *testing.T) {
	g, err := workload.NewGenerator(workload.Config{
		Vantage: cloudmodel.VantageNZ, Week: cloudmodel.W2020,
		TotalQueries: 6000, Seed: 40, ResolverScale: 0.002,
	})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	w := pcapio.NewWriter(&buf)
	if _, err := g.Run(w); err != nil {
		t.Fatal(err)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	blob := buf.Bytes()

	// Reference: single pass.
	single := NewAnalyzer(g.Registry())
	r, _ := pcapio.NewReader(bytes.NewReader(blob))
	if err := single.AnalyzeReader(r); err != nil {
		t.Fatal(err)
	}
	ref := single.Finish()

	// Sharded: split at a packet boundary near the middle.
	r, _ = pcapio.NewReader(bytes.NewReader(blob))
	var shardA, shardB bytes.Buffer
	wA := pcapio.NewWriter(&shardA)
	wB := pcapio.NewWriter(&shardB)
	i := 0
	err = pcapio.ForEachPacket(r, func(p pcapio.Packet) error {
		i++
		if i%2 == 0 { // interleave so query/response pairs mostly split
			return wB.WritePacket(p.Timestamp, p.Data)
		}
		return wA.WritePacket(p.Timestamp, p.Data)
	})
	if err != nil {
		t.Fatal(err)
	}
	_ = wA.Flush()
	_ = wB.Flush()

	merged := analyzeShard(t, g.Registry(), &shardA)
	merged.Merge(analyzeShard(t, g.Registry(), &shardB))

	// Totals, resolver sets and type counts must match exactly; junk may
	// differ because interleaving separates queries from responses.
	if merged.Total != ref.Total {
		t.Errorf("merged total %d != %d", merged.Total, ref.Total)
	}
	if len(merged.AllResolvers) != len(ref.AllResolvers) {
		t.Errorf("merged resolvers %d != %d", len(merged.AllResolvers), len(ref.AllResolvers))
	}
	if len(merged.ASes) != len(ref.ASes) {
		t.Errorf("merged ASes %d != %d", len(merged.ASes), len(ref.ASes))
	}
	for _, p := range astrie.CloudProviders {
		if merged.Provider(p).Queries != ref.Provider(p).Queries {
			t.Errorf("%s: merged %d != %d", p, merged.Provider(p).Queries, ref.Provider(p).Queries)
		}
		for typ, n := range ref.Provider(p).ByType {
			if merged.Provider(p).ByType[typ] != n {
				t.Errorf("%s %s: merged %d != %d", p, typ, merged.Provider(p).ByType[typ], n)
			}
		}
	}
	// Hourly series must merge additively.
	var refHours, mergedHours uint64
	for _, n := range ref.Hourly {
		refHours += n
	}
	for _, n := range merged.Hourly {
		mergedHours += n
	}
	if refHours != mergedHours {
		t.Errorf("hourly totals %d != %d", mergedHours, refHours)
	}
}

func analyzeShard(t *testing.T, reg *astrie.Registry, r io.Reader) *Aggregates {
	t.Helper()
	pr, err := pcapio.NewReader(r)
	if err != nil {
		t.Fatal(err)
	}
	an := NewAnalyzer(reg)
	if err := an.AnalyzeReader(pr); err != nil {
		t.Fatal(err)
	}
	return an.Finish()
}

func TestMergeNilIsNoop(t *testing.T) {
	reg := astrie.NewRegistry(1)
	an := NewAnalyzer(reg)
	ag := an.Finish()
	ag.Merge(nil)
	if ag.Total != 0 {
		t.Error("nil merge changed state")
	}
}
