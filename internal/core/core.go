// Package core is the paper's analysis layer: it drives the workload
// generator and the entrada pipeline for each vantage/week and computes
// every table and figure of the evaluation — Figure 1 (cloud query
// ratios), Figure 2/7 (record-type mixes), Figure 3 (Google's monthly
// series and the Q-min adoption point), Figure 4 (junk ratios), Figure 5/8
// (Facebook per-site family split vs RTT), Figure 6 (EDNS size CDFs), and
// Tables 2–6 — together with the paper's published values for comparison.
package core

import (
	"context"
	"fmt"
	"sync"
	"time"

	"dnscentral/internal/astrie"
	"dnscentral/internal/cloudmodel"
	"dnscentral/internal/entrada"
	"dnscentral/internal/pipeline"
	"dnscentral/internal/rdns"
	"dnscentral/internal/telemetry"
	"dnscentral/internal/workload"
	"dnscentral/internal/zonedb"
)

// RunConfig scales one experiment run.
type RunConfig struct {
	// TotalQueries per vantage/week trace (default 200_000).
	TotalQueries int
	// ResolverScale scales resolver populations (default 0.01).
	ResolverScale float64
	// Seed for reproducibility.
	Seed int64
	// Workers is the parallelism budget: RunAll runs up to Workers
	// vantage/week cells concurrently, and each cell's analysis streams
	// through an internal/pipeline engine with the cell's share of the
	// budget as flow shards (at least one). 0 or 1 runs the cells one
	// after another, each behind a single shard; results are identical
	// for every value (per-cell seeds are fixed up front and the
	// pipeline's merge is order-insensitive).
	Workers int
	// Telemetry, when set, threads a live metrics registry into the
	// workload generators and pipeline engines of every cell. Results
	// are unaffected.
	Telemetry *telemetry.Registry
}

func (c RunConfig) withDefaults() RunConfig {
	if c.TotalQueries <= 0 {
		c.TotalQueries = 200_000
	}
	if c.ResolverScale <= 0 {
		c.ResolverScale = 0.01
	}
	return c
}

// VWResult is the analyzed state of one vantage/week.
type VWResult struct {
	Vantage cloudmodel.Vantage
	Week    cloudmodel.Week
	Agg     *entrada.Aggregates
	Reg     *astrie.Registry
	PTR     *rdns.DB
	Zone    *zonedb.Zone
	Truth   *workload.GroundTruth
	Model   *cloudmodel.VantageWeek
	// NumServers the trace was generated with.
	NumServers int
}

// analyzerSink feeds generated packets straight into an analyzer,
// bypassing pcap bytes (the cmd pipeline exercises the pcap path).
type analyzerSink struct{ an *entrada.Analyzer }

func (s analyzerSink) WritePacket(ts time.Time, data []byte) error {
	s.an.HandlePacket(ts, data)
	return nil
}

// Run generates and analyzes one vantage/week: the generated packets
// stream through a pipeline engine with max(cfg.Workers, 1) flow shards.
func Run(v cloudmodel.Vantage, w cloudmodel.Week, cfg RunConfig) (*VWResult, error) {
	cfg = cfg.withDefaults()
	gen, err := workload.NewGenerator(workload.Config{
		Vantage:       v,
		Week:          w,
		TotalQueries:  cfg.TotalQueries,
		ResolverScale: cfg.ResolverScale,
		Seed:          cfg.Seed,
		// Generation shards under the same budget as analysis; the trace
		// bytes are identical for any worker count.
		Workers:   cfg.Workers,
		Telemetry: cfg.Telemetry,
	})
	if err != nil {
		return nil, err
	}
	// Map 0 to one shard here: pipeline.Options reads 0 as GOMAXPROCS.
	eng, err := pipeline.NewEngine(context.Background(), pipeline.Options{
		Workers:      max(cfg.Workers, 1),
		Registry:     gen.Registry(),
		AnalyzerOpts: []entrada.Option{entrada.WithZoneOrigin(gen.Zone().Origin)},
		Telemetry:    cfg.Telemetry,
	})
	if err != nil {
		return nil, err
	}
	truth, err := gen.Run(eng)
	if err != nil {
		eng.Close()
		return nil, err
	}
	agg, err := eng.Close()
	if err != nil {
		return nil, err
	}

	model, err := cloudmodel.Get(v, w)
	if err != nil {
		return nil, err
	}
	numServers := 1
	if v == cloudmodel.VantageNL {
		numServers = 2
	}
	return &VWResult{
		Vantage:    v,
		Week:       w,
		Agg:        agg,
		Reg:        gen.Registry(),
		PTR:        gen.PTRDB(),
		Zone:       gen.Zone(),
		Truth:      truth,
		Model:      model,
		NumServers: numServers,
	}, nil
}

// RunAll runs every vantage/week with per-cell seeds derived from
// cfg.Seed. B-Root traces use the same query budget (its day-long capture
// had comparable volume to a ccTLD week). With cfg.Workers > 1 the cells
// run concurrently under that worker budget; per-cell seeds are assigned
// in the fixed vantage/week order first, so the results are identical to
// a sequential run.
func RunAll(cfg RunConfig) (map[cloudmodel.Vantage]map[cloudmodel.Week]*VWResult, error) {
	type cell struct {
		v    cloudmodel.Vantage
		w    cloudmodel.Week
		seed int64
	}
	var cells []cell
	seed := cfg.Seed
	for _, v := range cloudmodel.Vantages {
		for _, w := range cloudmodel.Weeks {
			seed++
			cells = append(cells, cell{v, w, seed})
		}
	}

	results := make([]*VWResult, len(cells))
	errs := make([]error, len(cells))
	runCell := func(i int, workers int) {
		c := cfg
		c.Seed = cells[i].seed
		c.Workers = workers
		results[i], errs[i] = Run(cells[i].v, cells[i].w, c)
	}

	if cfg.Workers <= 1 {
		for i := range cells {
			runCell(i, cfg.Workers)
		}
	} else {
		// Spread the budget: up to Workers cells in flight, each cell's
		// engine getting an even share of the remaining parallelism.
		pilots := cfg.Workers
		if len(cells) < pilots {
			pilots = len(cells)
		}
		perCell := cfg.Workers / pilots
		jobs := make(chan int)
		var wg sync.WaitGroup
		for p := 0; p < pilots; p++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := range jobs {
					runCell(i, perCell)
				}
			}()
		}
		for i := range cells {
			jobs <- i
		}
		close(jobs)
		wg.Wait()
	}

	out := make(map[cloudmodel.Vantage]map[cloudmodel.Week]*VWResult)
	for i, c := range cells {
		if errs[i] != nil {
			return nil, fmt.Errorf("core: %s/%s: %w", c.v, c.w, errs[i])
		}
		if out[c.v] == nil {
			out[c.v] = make(map[cloudmodel.Week]*VWResult)
		}
		out[c.v][c.w] = results[i]
	}
	return out, nil
}
