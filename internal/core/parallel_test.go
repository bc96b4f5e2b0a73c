package core

import (
	"encoding/json"
	"testing"

	"dnscentral/internal/cloudmodel"
	"dnscentral/internal/entrada"
	"dnscentral/internal/workload"
)

// TestRunParallelMatchesSequential pins the pipeline-wiring invariant:
// streaming a cell's generated packets through the flow-shard engine
// yields byte-identical aggregates to one bare analyzer fed the same
// trace, for one shard (Workers 0 maps to 1) and for several.
func TestRunParallelMatchesSequential(t *testing.T) {
	cfg := RunConfig{TotalQueries: 8_000, ResolverScale: 0.003, Seed: 11}

	gen, err := workload.NewGenerator(workload.Config{
		Vantage: cloudmodel.VantageNL, Week: cloudmodel.W2020,
		TotalQueries: cfg.TotalQueries, ResolverScale: cfg.ResolverScale, Seed: cfg.Seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	an := entrada.NewAnalyzer(gen.Registry(), entrada.WithZoneOrigin(gen.Zone().Origin))
	if _, err := gen.Run(analyzerSink{an}); err != nil {
		t.Fatal(err)
	}
	want, err := json.Marshal(entrada.BuildReport(an.Finish(), gen.Registry()))
	if err != nil {
		t.Fatal(err)
	}

	for _, workers := range []int{0, 4} {
		cfg.Workers = workers
		res, err := Run(cloudmodel.VantageNL, cloudmodel.W2020, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if got := reportJSON(t, res.Agg, res); string(got) != string(want) {
			t.Fatalf("workers=%d: report differs from the single analyzer:\nwant: %.200s\ngot:  %.200s", workers, want, got)
		}
	}
}

// TestRunAllParallelMatchesSequential checks that the concurrent cell
// scheduler assigns the same per-cell seeds as the sequential loop.
func TestRunAllParallelMatchesSequential(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every vantage/week twice")
	}
	cfg := RunConfig{TotalQueries: 2_000, ResolverScale: 0.003, Seed: 3}
	seq, err := RunAll(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Workers = 4
	par, err := RunAll(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range cloudmodel.Vantages {
		for _, w := range cloudmodel.Weeks {
			s, p := seq[v][w], par[v][w]
			if s.Truth.Queries != p.Truth.Queries {
				t.Fatalf("%s/%s: query totals differ: %d vs %d", v, w, s.Truth.Queries, p.Truth.Queries)
			}
			sj := reportJSON(t, s.Agg, s)
			pj := reportJSON(t, p.Agg, p)
			if string(sj) != string(pj) {
				t.Errorf("%s/%s: parallel RunAll report differs from sequential", v, w)
			}
		}
	}
}

func reportJSON(t *testing.T, ag *entrada.Aggregates, res *VWResult) []byte {
	t.Helper()
	b, err := json.Marshal(entrada.BuildReport(ag, res.Reg))
	if err != nil {
		t.Fatal(err)
	}
	return b
}
