// Package pipeline is the parallel pcap ingestion engine: the
// multi-core counterpart of a single entrada.Analyzer, playing the role
// ENTRADA's horizontally-scaled loaders play in the paper's warehouse.
//
// A reader goroutine pulls packets off each capture, hashes every frame's
// 5-tuple flow (direction-insensitively, so a query and its response — and
// all segments of a TCP connection — land on the same shard), and fans the
// frames out over bounded queues to per-shard entrada.Analyzer workers;
// the shard aggregates are merged at the end. Because joining and TCP
// reassembly are flow-local, the merged result is identical to one bare
// entrada.Analyzer per file, merged — entrada's merge property tests pin
// that invariant, and this package's tests compare against exactly that
// reference. There is one code path for every worker count: Workers == 1
// is one shard behind the reader.
//
// Multiple captures ingest concurrently under one worker budget: with F
// files and W workers, min(F, W) files are in flight at once and the W
// shard workers are spread across them. Each file gets its own analyzers,
// so cross-file interleaving cannot change the result.
package pipeline

import (
	"context"
	"errors"
	"io"
	"runtime"
	"sync"
	"time"

	"dnscentral/internal/astrie"
	"dnscentral/internal/entrada"
	"dnscentral/internal/pcapio"
	"dnscentral/internal/telemetry"
)

// Options configures a Run (or a streaming Engine).
type Options struct {
	// Workers is the total flow-shard budget across all inputs (default
	// runtime.GOMAXPROCS(0)). Workers == 1 is one shard behind the reader;
	// the result is the same for every value.
	Workers int
	// Registry classifies source addresses; required.
	Registry *astrie.Registry
	// AnalyzerOpts are applied to every shard analyzer.
	AnalyzerOpts []entrada.Option
	// QueueDepth bounds each worker's queue, in batches (default 4).
	// Together with BatchBytes it caps buffered memory at roughly
	// Workers × QueueDepth × BatchBytes — no unbounded buffering no
	// matter how large the capture is.
	QueueDepth int
	// BatchSize is the maximum packets per batch (default 256).
	BatchSize int
	// BatchBytes is the maximum frame bytes per batch (default 64 KiB).
	BatchBytes int
	// Progress, when set, receives a Stats snapshot every
	// ProgressInterval (default 1s) while ingestion runs.
	Progress         func(Stats)
	ProgressInterval time.Duration
	// Telemetry, when set, publishes live ingestion metrics (total and
	// per-shard packet counters, malformed/unmatched/dropped counts,
	// queue-depth gauges) on the registry. Nil — the default — keeps the
	// hot path free of telemetry work.
	Telemetry *telemetry.Registry
}

func (o Options) withDefaults() Options {
	if o.Workers <= 0 {
		o.Workers = runtime.GOMAXPROCS(0)
	}
	if o.QueueDepth <= 0 {
		o.QueueDepth = 4
	}
	if o.BatchSize <= 0 {
		o.BatchSize = 256
	}
	if o.BatchBytes <= 0 {
		o.BatchBytes = 64 << 10
	}
	if o.ProgressInterval <= 0 {
		o.ProgressInterval = time.Second
	}
	return o
}

// Run ingests every reader (one pcap/pcapng capture each, as returned by
// pcapio.Open) through the flow-sharded worker pool and returns the merged
// aggregates plus the final ingestion stats. Stats.PerFile is indexed like
// readers. Run fails fast on the first read error or context cancellation.
func Run(ctx context.Context, readers []pcapio.PacketReader, opts Options) (*entrada.Aggregates, Stats, error) {
	opts = opts.withDefaults()
	if opts.Registry == nil {
		return nil, Stats{}, errors.New("pipeline: Options.Registry is required")
	}
	if len(readers) == 0 {
		return nil, Stats{}, errors.New("pipeline: no inputs")
	}
	cnt := newCounters(opts.Workers, opts.Telemetry)
	perFile := make([]fileCounter, len(readers))

	stopProgress := startProgress(cnt, opts, len(readers))
	defer stopProgress()

	agg, err := runFiles(ctx, readers, opts, cnt, perFile)
	stopProgress()

	st := cnt.snapshot(opts.Workers, len(readers))
	st.PerFile = make([]FileStats, len(readers))
	for i := range perFile {
		st.PerFile[i] = FileStats{
			Packets:        perFile[i].packets.Load(),
			Malformed:      perFile[i].malformed.Load(),
			TruncatedTails: perFile[i].truncated.Load(),
		}
	}
	if opts.Progress != nil {
		// One final snapshot — with PerFile populated — so the caller's
		// last observed tick is never stale relative to the returned Stats.
		opts.Progress(st)
	}
	return agg, st, err
}

// runFiles spreads the worker budget over min(F, W) concurrently
// ingesting files, each with its own flow-sharded engine.
func runFiles(parent context.Context, readers []pcapio.PacketReader, opts Options, cnt *counters, perFile []fileCounter) (*entrada.Aggregates, error) {
	ctx, cancel := context.WithCancel(parent)
	defer cancel()

	numFiles, workers := len(readers), opts.Workers
	pilots := numFiles
	if workers < pilots {
		pilots = workers
	}

	jobs := make(chan int)
	go func() {
		defer close(jobs)
		for i := range readers {
			select {
			case jobs <- i:
			case <-ctx.Done():
				return
			}
		}
	}()

	pilotAggs := make([]*entrada.Aggregates, pilots)
	pilotErrs := make([]error, pilots)
	var wg sync.WaitGroup
	slot := 0
	for j := 0; j < pilots; j++ {
		shards := workers / pilots
		if j < workers%pilots {
			shards++
		}
		offset := slot
		slot += shards
		wg.Add(1)
		go func(j, shards, offset int) {
			defer wg.Done()
			for idx := range jobs {
				eng := newEngine(ctx, newAnalyzers(shards, opts), offset, cnt, opts)
				rerr := drainReader(readers[idx], eng, &perFile[idx], cnt)
				shardAgg, cerr := eng.Close()
				perFile[idx].malformed.Store(eng.Malformed())
				if shardAgg != nil {
					if pilotAggs[j] == nil {
						pilotAggs[j] = shardAgg
					} else {
						pilotAggs[j].Merge(shardAgg)
					}
				}
				if rerr == nil {
					rerr = cerr
				}
				if rerr != nil {
					pilotErrs[j] = rerr
					cancel() // fail fast: stop the other pilots too
					return
				}
			}
		}(j, shards, offset)
	}
	wg.Wait()

	var agg *entrada.Aggregates
	var err error
	for j := 0; j < pilots; j++ {
		if pilotAggs[j] != nil {
			if agg == nil {
				agg = pilotAggs[j]
			} else {
				agg.Merge(pilotAggs[j])
			}
		}
		if err == nil && pilotErrs[j] != nil {
			err = pilotErrs[j]
		}
	}
	if err == nil {
		// The internal cancel fires only alongside a recorded pilot error;
		// caller-initiated cancellation surfaces through the parent.
		err = parent.Err()
	}
	return agg, err
}

// drainReader feeds one capture into an engine, counting frames per file.
// A torn final record ends the file like a clean EOF, counted as a
// malformed tail.
func drainReader(r pcapio.PacketReader, eng *Engine, fc *fileCounter, cnt *counters) error {
	for {
		pkt, err := r.ReadPacket()
		if err == io.EOF {
			return nil
		}
		if err != nil {
			if errors.Is(err, pcapio.ErrTruncatedRecord) {
				fc.truncated.Add(1)
				cnt.truncated.Add(1)
				cnt.tmTruncated.Add(1)
				return nil
			}
			return err
		}
		fc.packets.Add(1)
		if err := eng.WritePacket(pkt.Timestamp, pkt.Data); err != nil {
			return err
		}
	}
}

// startProgress launches the snapshot ticker; the returned stop function
// is idempotent.
func startProgress(cnt *counters, opts Options, files int) func() {
	if opts.Progress == nil {
		return func() {}
	}
	done := make(chan struct{})
	var once sync.Once
	go func() {
		t := time.NewTicker(opts.ProgressInterval)
		defer t.Stop()
		for {
			select {
			case <-t.C:
				opts.Progress(cnt.snapshot(opts.Workers, files))
			case <-done:
				return
			}
		}
	}()
	return func() { once.Do(func() { close(done) }) }
}
