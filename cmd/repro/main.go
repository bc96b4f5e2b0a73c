// Command repro runs the complete reproduction — every table and figure of
// the paper's evaluation — and writes an EXPERIMENTS.md-style comparison
// of paper vs measured values.
//
// Usage:
//
//	repro -queries 200000 -out EXPERIMENTS.md
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"time"

	"dnscentral/internal/core"
	"dnscentral/internal/pipeline"
	"dnscentral/internal/profiling"
	"dnscentral/internal/telemetry"
)

// prof is package-level so fatal can flush profiles before os.Exit.
var prof *profiling.Flags

func main() {
	var (
		queries = flag.Int("queries", 200_000, "query events per vantage/week")
		scale   = flag.Float64("scale", 0.01, "resolver population scale")
		seed    = flag.Int64("seed", 1, "random seed")
		workers = flag.Int("workers", runtime.GOMAXPROCS(0), "vantage/week cells and flow shards run under this worker budget (1 = one cell at a time, one shard behind its generator)")
		out     = flag.String("out", "", "output path (default stdout)")
	)
	tm := telemetry.RegisterFlags(flag.CommandLine)
	prof = profiling.Register(flag.CommandLine)
	flag.Parse()
	if err := prof.Start(); err != nil {
		fatal(err)
	}
	defer prof.Stop()

	reg := tm.Registry()
	stopTm, err := tm.Start(func(w io.Writer) {
		fmt.Fprintf(w, "repro: %d events generated, %d packets analyzed",
			reg.Counter("workload_events_total").Value(),
			reg.Counter(pipeline.MetricPackets).Value())
	})
	if err != nil {
		fatal(err)
	}
	defer stopTm()

	start := time.Now()
	rc := core.RunConfig{
		TotalQueries:  *queries,
		ResolverScale: *scale,
		Seed:          *seed,
		Workers:       *workers,
		Telemetry:     reg,
	}
	if err := writeReport(rc, *out); err != nil {
		fatal(err)
	}
	fmt.Fprintf(os.Stderr, "repro: done in %v\n", time.Since(start).Round(time.Millisecond))
}

// writeReport writes the comparison report to path (stdout when empty),
// surfacing the Close error — on a full disk only the final flush may
// fail, and a truncated EXPERIMENTS.md must not exit 0.
func writeReport(rc core.RunConfig, path string) error {
	if path == "" {
		return core.WriteExperimentsReport(os.Stdout, rc)
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := core.WriteExperimentsReport(f, rc); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("%s: close: %w", path, err)
	}
	return nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "repro:", err)
	prof.Stop()
	os.Exit(1)
}
