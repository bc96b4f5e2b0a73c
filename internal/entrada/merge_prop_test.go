package entrada

import (
	"bytes"
	"math/rand"
	"testing"

	"dnscentral/internal/astrie"
	"dnscentral/internal/cloudmodel"
	"dnscentral/internal/pcapio"
	"dnscentral/internal/workload"
)

// reportJSON renders the canonical report bytes used to compare runs:
// BuildReport sorts everything order-sensitive, and encoding/json emits
// maps with sorted keys, so equal aggregates yield identical bytes.
func reportJSON(t *testing.T, ag *Aggregates, reg *astrie.Registry) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := BuildReport(ag, reg).WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestPropertyMergeOrderInsensitive is the invariant the parallel pipeline
// rests on: splitting a capture into k flow-consistent shards, analyzing
// each independently, and merging the shard aggregates in ANY order must
// produce a report byte-identical to the single-analyzer run.
func TestPropertyMergeOrderInsensitive(t *testing.T) {
	g, err := workload.NewGenerator(workload.Config{
		Vantage: cloudmodel.VantageNL, Week: cloudmodel.W2020,
		TotalQueries: 5000, Seed: 77, ResolverScale: 0.002,
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
	reg := g.Registry()
	// Enable the Q-min origin so MinimizedQueries is exercised — a field
	// only populated with an origin set, and once dropped by Merge.
	origin := WithZoneOrigin(g.Zone().Origin)

	// Reference: single analyzer over the whole capture.
	single := NewAnalyzer(reg, origin)
	r, err := pcapio.NewReader(bytes.NewReader(blob))
	if err != nil {
		t.Fatal(err)
	}
	if err := single.AnalyzeReader(r); err != nil {
		t.Fatal(err)
	}
	want := reportJSON(t, single.Finish(), reg)

	for _, k := range []int{2, 3, 5} {
		// Shard by flow so query/response pairs and TCP connections stay
		// together — the same routing the pipeline's dispatcher uses.
		analyzers := make([]*Analyzer, k)
		for i := range analyzers {
			analyzers[i] = NewAnalyzer(reg, origin)
		}
		r, err := pcapio.NewReader(bytes.NewReader(blob))
		if err != nil {
			t.Fatal(err)
		}
		err = pcapio.ForEachPacket(r, func(p pcapio.Packet) error {
			analyzers[FlowShard(p.Data, k)].HandlePacket(p.Timestamp, p.Data)
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		shards := make([]*Aggregates, k)
		for i, an := range analyzers {
			shards[i] = an.Finish()
		}

		// Merge in several orders: identity, reversed, and random
		// permutations, each into a fresh empty base.
		rnd := rand.New(rand.NewSource(int64(k)))
		orders := [][]int{identityPerm(k), reversedPerm(k)}
		for i := 0; i < 4; i++ {
			orders = append(orders, rnd.Perm(k))
		}
		for _, order := range orders {
			merged := NewAnalyzer(reg).Finish() // empty, maps initialized
			for _, i := range order {
				merged.Merge(shards[i])
			}
			got := reportJSON(t, merged, reg)
			if !bytes.Equal(got, want) {
				t.Fatalf("k=%d order=%v: merged report differs from single-analyzer report", k, order)
			}
		}
	}
}

// TestPropertyMergeCommutative checks A+B == B+A directly on two disjoint
// halves of a capture (a stricter pairwise statement of the above).
func TestPropertyMergeCommutative(t *testing.T) {
	g, err := workload.NewGenerator(workload.Config{
		Vantage: cloudmodel.VantageNZ, Week: cloudmodel.W2019,
		TotalQueries: 3000, Seed: 9, ResolverScale: 0.002,
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
	reg := g.Registry()
	origin := WithZoneOrigin(g.Zone().Origin)

	analyzers := [2]*Analyzer{NewAnalyzer(reg, origin), NewAnalyzer(reg, origin)}
	r, err := pcapio.NewReader(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	err = pcapio.ForEachPacket(r, func(p pcapio.Packet) error {
		analyzers[FlowShard(p.Data, 2)].HandlePacket(p.Timestamp, p.Data)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	a, b := analyzers[0].Finish(), analyzers[1].Finish()

	ab := NewAnalyzer(reg).Finish()
	ab.Merge(a)
	ab.Merge(b)
	ba := NewAnalyzer(reg).Finish()
	ba.Merge(b)
	ba.Merge(a)
	if !bytes.Equal(reportJSON(t, ab, reg), reportJSON(t, ba, reg)) {
		t.Fatal("Merge is not commutative: A+B report != B+A report")
	}
}

func identityPerm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	return p
}

func reversedPerm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = n - 1 - i
	}
	return p
}
