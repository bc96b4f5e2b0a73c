// Streaming mode: the continuous-operation counterpart of Run. Instead
// of one end-of-run merge over finite files, RunStream tails a single
// growing capture into the flow-shard Engine. At every tumbling window
// boundary the reader sends a marker down each shard's queue; a shard
// that reaches it snapshots its analyzer's cumulative query counts (and,
// when a checkpoint is due, its full state), so the snapshots of one
// marker together are a consistent cut: every packet before the boundary
// and none after it. Windows are deltas of two cuts — no analyzer is ever
// flushed mid-run, which is what keeps the final aggregates identical to
// a batch pass — and are published through telemetry as the paper's
// centralization time series. Checkpoints (shard states + read offset at
// the cut) are written by a background goroutine, so a killed run resumes
// with byte-identical final aggregates and the packet path never waits
// for a disk.
package pipeline

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"time"

	"dnscentral/internal/astrie"
	"dnscentral/internal/entrada"
	"dnscentral/internal/pcapio"
	"dnscentral/internal/stats"
)

// Window telemetry families published per closed window.
const (
	// MetricWindowsClosed counts closed windows.
	MetricWindowsClosed = "entrada_windows_closed_total"
	// MetricWindowQueries gauges the last closed window's query count.
	MetricWindowQueries = "entrada_window_queries"
	// MetricWindowStart gauges the last closed window's start (Unix sec).
	MetricWindowStart = "entrada_window_start_seconds"
	// MetricWindowQPS gauges the last closed window's queries/second.
	MetricWindowQPS = "entrada_window_qps"
	// MetricWindowHHI gauges the window's provider-share HHI.
	MetricWindowHHI = "entrada_window_hhi"
	// MetricWindowTopShare gauges the window's largest provider share.
	MetricWindowTopShare = "entrada_window_top_share"
	// MetricWindowProviderShare is the per-provider share family; series
	// carry a {provider="Name"} label.
	MetricWindowProviderShare = "entrada_window_provider_share"
)

// Follow-reader telemetry families: how the reader learns that the
// capture grew, and how far behind the capture it is.
const (
	// MetricFollowWakeups counts the follow reader's waits by what ended
	// them; series carry {cause="event"} (a change to the file) or
	// {cause="poll"} (the fallback interval or the idle-exit deadline).
	MetricFollowWakeups = "entrada_follow_wakeups_total"
	// MetricFollowBytesBehind gauges the followed file's size minus the
	// committed read offset, sampled at every window cut.
	MetricFollowBytesBehind = "entrada_follow_bytes_behind"
)

// Window is one closed tumbling window of the capture-time query series.
type Window struct {
	// Index is Start.UnixNano() / Duration — consecutive windows of one
	// run have consecutive indices unless the capture had a quiet gap.
	Index int64
	// Start is the window's inclusive start in capture time.
	Start time.Time
	// Duration is the configured window width.
	Duration time.Duration
	// Queries counts queries finalized during the window.
	Queries uint64
	// Providers holds per-provider finalized-query counts.
	Providers map[string]uint64
	// Shares, HHI and Top1 are the window's centralization measures
	// (computed from Providers, the paper's §5 metrics per window).
	Shares []stats.Share
	HHI    float64
	Top1   float64
}

// StreamOptions configures RunStream. The embedded Options mean what they
// mean to Run: Workers is the number of flow shards behind the reader
// (one is simply one shard), QueueDepth, BatchSize and BatchBytes shape
// their queues. A resumed run adopts the shard count of its checkpoint
// instead of Workers, because the checkpointed flow state is only valid
// under the sharding that produced it.
type StreamOptions struct {
	Options

	// Window is the tumbling-window width in capture time (default 1m).
	Window time.Duration
	// OnWindow, when set, receives every closed window (including the
	// final partial one at shutdown), in order, on one goroutine that is
	// not the caller's. A slow OnWindow delays the windows behind it and,
	// once the shard queues fill, the reader.
	OnWindow func(Window)
	// CheckpointDir, when non-empty, enables checkpointing: state is
	// written atomically (temp file + fsync + rename) to
	// CheckpointDir/entrada.ckpt every CheckpointEvery closed windows, in
	// the background, and once at shutdown. When windows close faster than
	// the disk takes checkpoints, the newest one waiting replaces the older.
	CheckpointDir string
	// CheckpointEvery is the checkpoint cadence in windows (default 4).
	CheckpointEvery int
	// Resume loads CheckpointDir/entrada.ckpt if present and continues
	// from its offset; a missing checkpoint file starts fresh.
	Resume bool
	// Poll is the follow reader's fallback re-check interval (default
	// pcapio.DefaultFollowPoll). Where the reader is woken by writes to
	// the capture it bounds how late a missed event can leave it; where
	// it is not, it is the polling period.
	Poll time.Duration
	// IdleExit ends the stream once the capture stops growing for this
	// long (0 = follow until cancelled). Used by tests and CI for
	// deterministic termination.
	IdleExit time.Duration
}

// StreamResult summarizes a finished stream.
type StreamResult struct {
	// Windows holds every closed window in order, including the final
	// partial one.
	Windows []Window
	// WindowsClosed counts closed windows across the whole logical run —
	// it continues from the checkpoint on resume.
	WindowsClosed uint64
	// Offset is the final committed read offset in the followed file.
	Offset int64
	// TruncatedTails and Rotations mirror the follow reader's counts.
	TruncatedTails uint64
	Rotations      uint64
	// Resumed reports whether a checkpoint was loaded.
	Resumed bool
	// Stats is the final progress snapshot.
	Stats Stats
}

// sumCounts adds up the shards' cumulative counts.
func sumCounts(shards []entrada.QueryCounts) entrada.QueryCounts {
	sum := entrada.QueryCounts{ByProvider: make(map[astrie.Provider]uint64)}
	for _, qc := range shards {
		sum.Total += qc.Total
		for p, n := range qc.ByProvider {
			sum.ByProvider[p] += n
		}
	}
	return sum
}

// collector turns completed cuts into the window series and into
// checkpoints. It runs the functions sent to do, one at a time and in
// order: the last shard to reach a marker sends one, and markers are
// reached in the order the reader issued them. Windows are keyed by capture
// time (pkt.Timestamp / width, the same bucketing Aggregates.Hourly uses at
// hour scale), so they are stable across restarts and replay speed, and
// each is the difference between two cuts' summed counts: a query is
// finalized by packets of its own flow alone, so that difference does not
// depend on how many shards the flows are spread over.
type collector struct {
	opts     *StreamOptions
	do       chan func()
	done     chan struct{}
	baseline entrada.QueryCounts
	writer   *checkpointWriter // nil without a CheckpointDir

	// Owned by run until done is closed.
	res *StreamResult
	err error // the first shard or checkpoint-write error
}

func (c *collector) run() {
	defer close(c.done)
	for f := range c.do {
		f()
	}
	if c.writer != nil {
		if err := c.writer.close(); err != nil && c.err == nil {
			c.err = err
		}
	}
}

// closeWindow emits the window that ends at a cut with these per-shard
// counts. The shutdown cut ends a partial window, which gets its line
// whenever a packet of this run opened it, even if no query was finalized
// in it; a run that resumes from the shutdown checkpoint emits the rest of
// that window under the same index (window emission is at-least-once; the
// aggregates are exact).
func (c *collector) closeWindow(index int64, open bool, counts []entrada.QueryCounts) {
	if open {
		c.emit(c.window(index, sumCounts(counts)))
	}
}

// window builds the window that ends at a cut whose summed counts are now,
// and makes now the baseline of the next one.
func (c *collector) window(index int64, now entrada.QueryCounts) Window {
	width := c.opts.Window
	win := Window{
		Index:     index,
		Start:     time.Unix(0, index*int64(width)).UTC(),
		Duration:  width,
		Queries:   now.Total - c.baseline.Total,
		Providers: make(map[string]uint64),
	}
	for p, n := range now.ByProvider {
		if d := n - c.baseline.ByProvider[p]; d > 0 {
			win.Providers[p.String()] = d
		}
	}
	win.Shares = stats.Shares(win.Providers)
	win.HHI = stats.HHI(win.Shares)
	win.Top1 = stats.TopShare(win.Shares, 1)
	c.baseline = now
	return win
}

func (c *collector) emit(win Window) {
	tm := c.opts.Telemetry
	c.res.Windows = append(c.res.Windows, win)
	c.res.WindowsClosed++
	tm.Counter(MetricWindowsClosed).Inc()
	tm.Gauge(MetricWindowQueries).Set(int64(win.Queries))
	tm.Gauge(MetricWindowStart).Set(win.Start.Unix())
	tm.FloatGauge(MetricWindowQPS).Set(float64(win.Queries) / win.Duration.Seconds())
	tm.FloatGauge(MetricWindowHHI).Set(win.HHI)
	tm.FloatGauge(MetricWindowTopShare).Set(win.Top1)
	for name, n := range win.Providers {
		share := stats.Ratio(n, win.Queries)
		tm.FloatGauge(MetricWindowProviderShare + `{provider="` + name + `"}`).Set(share)
	}
	if c.opts.OnWindow != nil {
		c.opts.OnWindow(win)
	}
}

// checkpoint hands a cut's shard states to the background writer.
func (c *collector) checkpoint(head checkpointHeader, issued time.Time, states []json.RawMessage, errs []error) {
	for _, err := range errs {
		if err != nil && c.err == nil {
			c.err = err
		}
	}
	if c.err == nil {
		c.writer.submit(pendingCheckpoint{ck: streamCheckpoint{checkpointHeader: head, Shards: states}, issued: issued})
	}
}

// RunStream follows one growing capture file through the flow-shard
// engine, emitting tumbling windows and (optionally) checkpoints, and
// returns the final aggregates — byte-identical to what a batch Run over
// the same finished capture would produce, for any worker count and even
// across a kill+resume.
func RunStream(ctx context.Context, input string, opts StreamOptions) (*entrada.Aggregates, StreamResult, error) {
	opts.Options = opts.Options.withDefaults()
	if opts.Registry == nil {
		return nil, StreamResult{}, errors.New("pipeline: Options.Registry is required")
	}
	if opts.Window <= 0 {
		opts.Window = time.Minute
	}
	if opts.CheckpointEvery <= 0 {
		opts.CheckpointEvery = 4
	}
	if opts.Poll <= 0 {
		opts.Poll = pcapio.DefaultFollowPoll
	}

	res := StreamResult{}
	var shards []*entrada.Analyzer
	var resumeOff int64
	if opts.Resume {
		if opts.CheckpointDir == "" {
			return nil, res, errors.New("pipeline: Resume requires CheckpointDir")
		}
		ck, ok, err := loadCheckpoint(opts.CheckpointDir)
		if err != nil {
			return nil, res, err
		}
		if ok {
			if ck.WindowNanos != int64(opts.Window) {
				return nil, res, fmt.Errorf("pipeline: checkpoint window %v != configured %v",
					time.Duration(ck.WindowNanos), opts.Window)
			}
			if shards, err = ck.restoreShards(opts.Registry); err != nil {
				return nil, res, err
			}
			opts.Workers = len(shards)
			resumeOff = ck.Offset
			res.WindowsClosed = ck.WindowsClosed
			res.Resumed = true
		}
	}
	if shards == nil {
		shards = newAnalyzers(opts.Workers, opts.Options)
	}

	col := &collector{
		opts: &opts,
		do:   make(chan func()),
		done: make(chan struct{}),
		res:  &res,
	}
	// The restored counts are the cut the checkpoint was taken at: a window
	// boundary, or wherever the previous run shut down.
	restored := make([]entrada.QueryCounts, len(shards))
	for i, an := range shards {
		restored[i] = an.QueryCounts()
	}
	col.baseline = sumCounts(restored)
	if opts.CheckpointDir != "" {
		if err := os.MkdirAll(opts.CheckpointDir, 0o755); err != nil {
			return nil, res, fmt.Errorf("pipeline: checkpoint dir: %w", err)
		}
		if err := sweepCheckpointTemps(opts.CheckpointDir); err != nil {
			return nil, res, err
		}
		col.writer = startCheckpointWriter(opts.CheckpointDir, opts.Telemetry)
	}
	go col.run()

	cnt := newCounters(len(shards), opts.Telemetry)
	stopProgress := startProgress(cnt, opts.Options, 1)
	defer stopProgress()
	// ctx ends the reading, not the engine: after SIGINT/SIGTERM the shards
	// still have to reach the final marker and be joined.
	eng := newEngine(context.WithoutCancel(ctx), shards, 0, cnt, opts.Options)

	fopts := []pcapio.FollowOption{
		pcapio.FollowPoll(opts.Poll),
		// A quiet capture must not strand packets in a partial batch ahead
		// of a marker or a shutdown. The engine's context is never
		// cancelled, so flushAll cannot fail.
		pcapio.FollowBeforeWait(func() { _ = eng.flushAll() }),
	}
	if opts.IdleExit > 0 {
		fopts = append(fopts, pcapio.FollowIdleExit(opts.IdleExit))
	}
	if resumeOff > 0 {
		fopts = append(fopts, pcapio.FollowResumeAt(resumeOff))
	}
	fr := pcapio.NewFollowReader(ctx, input, fopts...)
	defer fr.Close()
	opts.Telemetry.CounterFunc(MetricFollowWakeups+`{cause="event"}`, fr.EventWakeups)
	opts.Telemetry.CounterFunc(MetricFollowWakeups+`{cause="poll"}`, fr.PollWakeups)
	behind := opts.Telemetry.Gauge(MetricFollowBytesBehind)

	var (
		cur     int64 // index of the open window
		open    bool
		closed  = res.WindowsClosed // windows closed by a later packet, restarts included
		prevOff = resumeOff         // offset of the last dispatched (or skipped) record
	)
	// issue cuts the stream here: a marker goes down every shard's queue,
	// behind every packet dispatched so far, and the shards' counts at it
	// close the open window. When a checkpoint is due a second marker
	// follows at the same position for the shards' states, so that the
	// window line does not wait for the marshalling. A checkpoint that the
	// background writer failed to write fails the run at the next cut.
	issue := func(ckpt bool) error {
		if behind != nil {
			behind.Set(fr.BytesBehind())
		}
		counts := make([]entrada.QueryCounts, len(shards))
		window, isOpen := cur, open
		err := eng.barrier(
			func(i int, an *entrada.Analyzer) { counts[i] = an.QueryCounts() },
			func() { col.do <- func() { col.closeWindow(window, isOpen, counts) } })
		if err != nil || col.writer == nil {
			return err
		}
		if err := col.writer.failed(); err != nil || !ckpt {
			return err
		}
		head := checkpointHeader{
			Version: streamCheckpointVersion, Input: input, Offset: prevOff,
			WindowNanos: int64(opts.Window), WindowsClosed: closed,
		}
		issued := time.Now()
		states, errs := make([]json.RawMessage, len(shards)), make([]error, len(shards))
		return eng.barrier(
			func(i int, an *entrada.Analyzer) { states[i], errs[i] = an.MarshalState() },
			func() { col.do <- func() { col.checkpoint(head, issued, states, errs) } })
	}

	var runErr error
	for n := 1; ; n++ {
		pkt, rerr := fr.ReadPacket()
		if rerr != nil {
			// io.EOF is idle-exit: the capture stopped growing. A cancelled
			// ctx is graceful shutdown (SIGINT/SIGTERM): flush the final
			// window below, keep what we have.
			if rerr != io.EOF && ctx.Err() == nil {
				runErr = rerr
			}
			break
		}
		idx := pkt.Timestamp.UnixNano() / int64(opts.Window)
		if !open {
			cur, open = idx, true
		} else if idx > cur {
			// The cut goes in before the packet that crossed the boundary
			// is dispatched and prevOff excludes that packet, so a resume
			// re-reads it and no packet is lost or doubled. A timestamp
			// that goes backwards stays in the open window: capture time at
			// one server is near-monotonic, and never reopening a window
			// keeps the series monotone.
			closed++
			if runErr = issue(closed%uint64(opts.CheckpointEvery) == 0); runErr != nil {
				break
			}
			cur = idx
		}
		if runErr = eng.WritePacket(pkt.Timestamp, pkt.Data); runErr != nil {
			break
		}
		prevOff = fr.Offset()
		if n%1024 == 0 && ctx.Err() != nil {
			// The follow reader only notices cancellation when a read
			// blocks; during a backlog burst reads never block, so check
			// here too — otherwise a shutdown signal waits for the whole
			// backlog to drain.
			break
		}
	}

	// Shutdown. The final cut is taken in-band, so its shard states are
	// marshalled before Close lets Finish flush the pending queries into
	// them; a run that failed leaves the last good checkpoint alone.
	ferr := issue(runErr == nil)
	agg, cerr := eng.Close()
	// Close joined the workers, so every cut has reached the collector.
	close(col.do)
	<-col.done
	for _, err := range []error{ferr, cerr, col.err} {
		if runErr == nil {
			runErr = err
		}
	}

	cnt.truncated.Add(fr.TruncatedTails())
	cnt.tmTruncated.Add(fr.TruncatedTails())
	stopProgress()

	res.Offset = fr.Offset()
	res.TruncatedTails = fr.TruncatedTails()
	res.Rotations = fr.Rotations()
	res.Stats = cnt.snapshot(len(shards), 1)
	res.Stats.PerFile = []FileStats{{
		Packets:        res.Stats.PacketsRead,
		Malformed:      eng.Malformed(),
		TruncatedTails: fr.TruncatedTails(),
	}}
	if opts.Progress != nil {
		opts.Progress(res.Stats)
	}
	if runErr == nil && ctx.Err() != nil {
		runErr = ctx.Err()
	}
	return agg, res, runErr
}
