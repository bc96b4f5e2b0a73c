// Command entrada analyzes an authoritative-side DNS pcap into the
// aggregate report the paper's tables and figures are computed from —
// the single-machine counterpart of the ENTRADA warehouse.
//
// Usage:
//
//	entrada -in nl-w2020.pcap -out nl-w2020.json   # accepts pcap and pcapng
//
// Pass -in multiple times to analyze shards of a split capture; the
// per-shard aggregates are merged before reporting. -workers N is the
// number of flow shards ingestion runs on (default: one per core);
// -workers 1 is one shard behind the reader, and the report is the same
// for every N. -metrics-addr serves live
// ingestion counters over HTTP while the run is in flight.
//
// With -follow, entrada becomes a long-running service: it tails one
// growing capture (waiting through torn final records until the writer
// completes them) into the same -workers flow shards, publishes a
// centralization time series in tumbling -window intervals of capture
// time, and — with -checkpoint DIR — persists the shards' analyzer state
// and the read offset in the background so a killed run restarted with
// -resume produces the exact report an uninterrupted run would have
// (-resume keeps the checkpoint's shard count, whatever -workers says).
// SIGINT/SIGTERM flush the final partial window and write the report;
// -idle-exit ends the run once the capture stops growing.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"runtime"
	"syscall"
	"time"

	"dnscentral/internal/astrie"
	"dnscentral/internal/core"
	"dnscentral/internal/entrada"
	"dnscentral/internal/pcapio"
	"dnscentral/internal/pipeline"
	"dnscentral/internal/profiling"
	"dnscentral/internal/telemetry"
)

// prof is package-level so fatal can flush profiles before os.Exit.
var prof *profiling.Flags

// lazyPcap defers opening its file until the pipeline first reads from
// it and closes it the moment ingestion finishes (EOF or error). Open
// descriptors are therefore bounded by ingestion concurrency, not by
// the number of -in flags — a thousand shards no longer trip ulimit -n.
type lazyPcap struct {
	path string
	f    *os.File
	r    pcapio.PacketReader
	done bool
}

func (l *lazyPcap) ReadPacket() (pcapio.Packet, error) {
	if l.done {
		return pcapio.Packet{}, io.EOF
	}
	if l.r == nil {
		f, err := os.Open(l.path)
		if err != nil {
			l.done = true
			return pcapio.Packet{}, err
		}
		r, err := pcapio.Open(f)
		if err != nil {
			f.Close()
			l.done = true
			return pcapio.Packet{}, fmt.Errorf("%s: %w", l.path, err)
		}
		l.f, l.r = f, r
	}
	pkt, err := l.r.ReadPacket()
	if err != nil {
		l.done = true
		l.f.Close()
		l.f, l.r = nil, nil
	}
	return pkt, err
}

func main() {
	var inputs []string
	flag.Func("in", "input pcap path (repeatable for shards)", func(v string) error {
		inputs = append(inputs, v)
		return nil
	})
	out := flag.String("out", "", "output JSON report path (default stdout)")
	zone := flag.String("zone", "", "zone origin the capture's server is authoritative for (enables the Q-min heuristic), e.g. nl")
	workers := flag.Int("workers", runtime.GOMAXPROCS(0), "flow-shard count (1 = one shard behind the reader)")
	progress := flag.Duration("progress", 0, "print ingestion progress at this interval, e.g. 2s (0 disables)")
	follow := flag.Bool("follow", false, "tail a single growing capture continuously (one -in only)")
	window := flag.Duration("window", time.Minute, "tumbling window width in capture time for -follow")
	ckDir := flag.String("checkpoint", "", "directory for -follow checkpoints (state + read offset)")
	resume := flag.Bool("resume", false, "resume -follow from the checkpoint in -checkpoint")
	idleExit := flag.Duration("idle-exit", 0, "end -follow once the capture stops growing for this long (0 = until signalled)")
	tm := telemetry.RegisterFlags(flag.CommandLine)
	prof = profiling.Register(flag.CommandLine)
	flag.Parse()
	if len(inputs) == 0 {
		fmt.Fprintln(os.Stderr, "entrada: at least one -in is required")
		flag.Usage()
		os.Exit(2)
	}
	if err := prof.Start(); err != nil {
		fatal(err)
	}
	defer prof.Stop()

	reg := tm.Registry()
	stopTm, err := tm.Start(func(w io.Writer) {
		fmt.Fprintf(w, "entrada: %d packets (%d malformed, %d dropped segments)",
			reg.Counter(pipeline.MetricPackets).Value(),
			reg.Counter(pipeline.MetricMalformed).Value(),
			reg.Counter(pipeline.MetricDropped).Value())
	})
	if err != nil {
		fatal(err)
	}
	defer stopTm()

	// The synthetic prefix allocation is ordinal-stable, so the analyzer
	// can always use the maximal registry regardless of how many
	// long-tail ASes the generator used. The registry is flat — a few
	// slices, under 1 MiB live for all 55,296 ASes — and is shared read-only
	// by every shard; each shard classifies a source address once, in its
	// own source table.
	asReg := astrie.NewRegistry(astrie.MaxASes - 20)
	var anOpts []entrada.Option
	if *zone != "" {
		anOpts = append(anOpts, entrada.WithZoneOrigin(*zone))
	}

	if *follow {
		if len(inputs) != 1 {
			fmt.Fprintln(os.Stderr, "entrada: -follow takes exactly one -in")
			os.Exit(2)
		}
		if err := runFollow(inputs[0], followConfig{
			registry: asReg, anOpts: anOpts, telemetry: reg, workers: *workers,
			window: *window, checkpointDir: *ckDir, resume: *resume,
			idleExit: *idleExit, progress: *progress, out: *out,
		}); err != nil {
			fatal(err)
		}
		stopTm()
		return
	}

	readers := make([]pcapio.PacketReader, len(inputs))
	for i, path := range inputs {
		readers[i] = &lazyPcap{path: path}
	}

	opts := pipeline.Options{
		Workers:      *workers,
		Registry:     asReg,
		AnalyzerOpts: anOpts,
		Telemetry:    reg,
	}
	if *progress > 0 {
		opts.ProgressInterval = *progress
		opts.Progress = func(st pipeline.Stats) {
			fmt.Fprintf(os.Stderr, "%s (queues %v)\n", st, st.QueueDepths)
		}
	}
	ag, st, err := pipeline.Run(context.Background(), readers, opts)
	if err != nil {
		fatal(err)
	}

	// Per-file and total malformed accounting: a capture whose every
	// packet is malformed is almost certainly the wrong file.
	allBad := false
	for i, fs := range st.PerFile {
		if fs.Malformed > 0 {
			fmt.Fprintf(os.Stderr, "entrada: %s: skipped %d malformed packets\n", inputs[i], fs.Malformed)
		}
		if fs.Packets > 0 && fs.Malformed == fs.Packets {
			fmt.Fprintf(os.Stderr, "entrada: %s: all %d packets malformed — wrong file?\n", inputs[i], fs.Packets)
			allBad = true
		}
	}
	if len(inputs) > 1 && st.Malformed > 0 {
		fmt.Fprintf(os.Stderr, "entrada: %d malformed packets total across %d inputs\n", st.Malformed, len(inputs))
	}
	fmt.Fprintf(os.Stderr, "%s [%d packets, %d workers, %s, %.0f pkt/s]\n",
		ag, st.PacketsRead, st.Workers, st.Elapsed.Round(time.Millisecond), st.PacketsPerSec)

	rep := entrada.BuildReport(ag, asReg)
	if err := writeReport(rep, *out); err != nil {
		fatal(err)
	}
	stopTm()
	if allBad {
		prof.Stop()
		os.Exit(1)
	}
}

// followConfig carries the -follow flag set into runFollow.
type followConfig struct {
	registry      *astrie.Registry
	anOpts        []entrada.Option
	telemetry     *telemetry.Registry
	workers       int
	window        time.Duration
	checkpointDir string
	resume        bool
	idleExit      time.Duration
	progress      time.Duration
	out           string
}

// runFollow is the continuous-operation mode: tail one growing capture
// until idle-exit or SIGINT/SIGTERM, emitting one line per closed window
// and — on shutdown — the window series plus the same JSON report batch
// mode writes. A SIGKILL instead loses at most the packets since the
// last checkpoint; restarting with -resume replays them, so the final
// report is still byte-identical to an uninterrupted run.
func runFollow(input string, cfg followConfig) error {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	sopts := pipeline.StreamOptions{
		Options: pipeline.Options{
			Workers:      cfg.workers,
			Registry:     cfg.registry,
			AnalyzerOpts: cfg.anOpts,
			Telemetry:    cfg.telemetry,
		},
		Window:        cfg.window,
		CheckpointDir: cfg.checkpointDir,
		Resume:        cfg.resume,
		IdleExit:      cfg.idleExit,
		OnWindow: func(w pipeline.Window) {
			fmt.Fprintf(os.Stderr, "entrada: window %s: %d queries, HHI %.3f, top share %.1f%%\n",
				w.Start.Format(time.RFC3339), w.Queries, w.HHI, 100*w.Top1)
		},
	}
	if cfg.progress > 0 {
		sopts.ProgressInterval = cfg.progress
		sopts.Progress = func(st pipeline.Stats) {
			fmt.Fprintf(os.Stderr, "%s (queues %v)\n", st, st.QueueDepths)
		}
	}

	ag, sres, err := pipeline.RunStream(ctx, input, sopts)
	stop()
	if err != nil && !errors.Is(err, context.Canceled) {
		return err
	}
	if sres.Resumed {
		fmt.Fprintf(os.Stderr, "entrada: resumed from checkpoint (%d windows closed before restart, %d shards)\n",
			sres.WindowsClosed-uint64(len(sres.Windows)), sres.Stats.Workers)
	}
	// A long follow can close thousands of windows; cap the shutdown
	// table at the most recent ones (the full series already went out
	// live, one line per window).
	series := sres.Windows
	const maxRows = 48
	if len(series) > maxRows {
		fmt.Fprintf(os.Stderr, "entrada: window series truncated to the last %d of %d windows\n", maxRows, len(series))
		series = series[len(series)-maxRows:]
	}
	fmt.Fprint(os.Stderr, core.RenderWindowSeries(series))
	fmt.Fprintf(os.Stderr, "%s [%d packets, %d workers, offset %d, %d truncated tails, %d rotations]\n",
		ag, sres.Stats.PacketsRead, sres.Stats.Workers, sres.Offset, sres.TruncatedTails, sres.Rotations)

	rep := entrada.BuildReport(ag, cfg.registry)
	return writeReport(rep, cfg.out)
}

// writeReport writes the JSON report to path (stdout when empty). The
// Close error is checked: on a full disk the kernel often accepts the
// buffered writes and only fails the final flush, so ignoring it would
// report success over a truncated file.
func writeReport(rep *entrada.Report, path string) error {
	if path == "" {
		return rep.WriteJSON(os.Stdout)
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := rep.WriteJSON(f); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("%s: close: %w", path, err)
	}
	return nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "entrada:", err)
	prof.Stop()
	os.Exit(1)
}
