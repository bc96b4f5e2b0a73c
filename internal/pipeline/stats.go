package pipeline

import (
	"fmt"
	"strconv"
	"sync/atomic"
	"time"

	"dnscentral/internal/telemetry"
)

// Telemetry metric names the pipeline publishes when Options.Telemetry
// is set (CLIs read them back for progress snapshots).
const (
	// MetricPackets counts frames handed to shard analyzers.
	MetricPackets = "pipeline_packets_total"
	// MetricMalformed counts undecodable frames.
	MetricMalformed = "pipeline_malformed_total"
	// MetricUnmatched counts responses with no pending query.
	MetricUnmatched = "pipeline_unmatched_responses_total"
	// MetricDropped counts TCP reassembly overflow drops.
	MetricDropped = "pipeline_dropped_segments_total"
	// MetricTruncatedTails counts inputs that ended in a torn final
	// record (normal when snapshotting a live capture).
	MetricTruncatedTails = "pipeline_truncated_tails_total"
	// MetricQueueDepth gauges the total queued batches across workers;
	// per-slot series carry a {shard="N"} label.
	MetricQueueDepth = "pipeline_queue_depth"
	// metricShardPackets is the per-worker-slot packet counter family.
	metricShardPackets = "pipeline_shard_packets_total"
)

// shardLabel renders `family{shard="i"}`.
func shardLabel(family string, i int) string {
	return family + `{shard="` + strconv.Itoa(i) + `"}`
}

// Stats is a snapshot of the ingestion engine's progress. Run returns the
// final snapshot; the Progress option delivers intermediate ones while the
// engine is running.
type Stats struct {
	// PacketsRead counts frames read from all inputs.
	PacketsRead uint64
	// PacketsDispatched counts frames handed to shard workers. It lags
	// PacketsRead by the frames still in partial batches and catches up
	// when a run that did not fail flushes them.
	PacketsDispatched uint64
	// Malformed counts frames the analyzers could not decode, summed
	// across all shards and files.
	Malformed uint64
	// UnmatchedResponses counts responses with no pending query.
	UnmatchedResponses uint64
	// DroppedSegments mirrors Aggregates.DroppedSegments (TCP reassembly
	// overflow drops).
	DroppedSegments uint64
	// TruncatedTails counts inputs whose final record was torn — counted
	// as a malformed tail, not a fatal error.
	TruncatedTails uint64
	// Workers is the shard-worker budget the run used.
	Workers int
	// Files is the number of inputs.
	Files int
	// QueueDepths is the per-worker-slot queue depth, in batches, at
	// snapshot time (all zeros in a final snapshot).
	QueueDepths []int
	// Elapsed is the wall time since ingestion started.
	Elapsed time.Duration
	// PacketsPerSec is PacketsDispatched / Elapsed.
	PacketsPerSec float64
	// PerFile holds per-input totals, indexed like the readers passed to
	// Run (empty for an Engine used as a streaming sink).
	PerFile []FileStats
}

// FileStats summarizes one input.
type FileStats struct {
	// Packets read from this input.
	Packets uint64
	// Malformed frames among them.
	Malformed uint64
	// TruncatedTails is 1 when this input ended in a torn final record.
	TruncatedTails uint64
}

// String renders a one-line progress summary.
func (s Stats) String() string {
	return fmt.Sprintf("pipeline: %d packets in %v (%.0f pkt/s, %d workers, %d malformed)",
		s.PacketsDispatched, s.Elapsed.Round(time.Millisecond), s.PacketsPerSec, s.Workers, s.Malformed)
}

// counters is the shared mutable progress state of one run; every field is
// updated atomically so snapshot can be called from any goroutine.
type counters struct {
	start      time.Time
	read       atomic.Uint64
	dispatched atomic.Uint64
	malformed  atomic.Uint64
	unmatched  atomic.Uint64
	dropped    atomic.Uint64
	truncated  atomic.Uint64
	depths     []atomic.Int64 // one slot per worker

	// Telemetry mirrors (nil ⇒ no-ops). Workers feed the counters at
	// batch granularity through per-slot shard cells, so the live
	// /metrics view costs nothing on the per-packet path.
	tmPackets   *telemetry.Counter
	tmMalformed *telemetry.Counter
	tmUnmatched *telemetry.Counter
	tmDropped   *telemetry.Counter
	tmTruncated *telemetry.Counter
}

func newCounters(workers int, reg *telemetry.Registry) *counters {
	c := &counters{start: time.Now(), depths: make([]atomic.Int64, workers)}
	c.tmPackets = reg.Counter(MetricPackets)
	c.tmMalformed = reg.Counter(MetricMalformed)
	c.tmUnmatched = reg.Counter(MetricUnmatched)
	c.tmDropped = reg.Counter(MetricDropped)
	c.tmTruncated = reg.Counter(MetricTruncatedTails)
	if reg != nil {
		depths := c.depths
		reg.GaugeFunc(MetricQueueDepth, func() int64 {
			var sum int64
			for i := range depths {
				sum += depths[i].Load()
			}
			return sum
		})
		for i := range depths {
			d := &depths[i]
			reg.GaugeFunc(shardLabel(MetricQueueDepth, i), d.Load)
		}
	}
	return c
}

func (c *counters) snapshot(workers, files int) Stats {
	elapsed := time.Since(c.start)
	st := Stats{
		PacketsRead:        c.read.Load(),
		PacketsDispatched:  c.dispatched.Load(),
		Malformed:          c.malformed.Load(),
		UnmatchedResponses: c.unmatched.Load(),
		DroppedSegments:    c.dropped.Load(),
		TruncatedTails:     c.truncated.Load(),
		Workers:            workers,
		Files:              files,
		QueueDepths:        make([]int, len(c.depths)),
		Elapsed:            elapsed,
	}
	for i := range c.depths {
		st.QueueDepths[i] = int(c.depths[i].Load())
	}
	if secs := elapsed.Seconds(); secs > 0 {
		st.PacketsPerSec = float64(st.PacketsDispatched) / secs
	}
	return st
}

// fileCounter tracks one input's totals (atomic: the reader goroutine
// writes while the progress goroutine snapshots).
type fileCounter struct {
	packets   atomic.Uint64
	malformed atomic.Uint64
	truncated atomic.Uint64
}
