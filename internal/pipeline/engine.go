package pipeline

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"time"

	"dnscentral/internal/entrada"
	"dnscentral/internal/telemetry"
)

// Engine is a concurrent ingestion sink for one logical capture: packets
// written to it are hashed by 5-tuple flow and fanned out over bounded
// queues to per-shard entrada.Analyzer workers; Close joins the workers
// and merges the shard aggregates. Both directions of a flow hash to the
// same shard, so query/response joining and TCP reassembly stay
// shard-local and the merged result equals a single-Analyzer run.
//
// WritePacket must be called from a single goroutine (it satisfies
// workload.PacketSink).
type Engine struct {
	ctx    context.Context
	shards []*shard
	fill   []*batch // per-shard batch the dispatcher is filling
	pool   *sync.Pool
	cnt    *counters

	batchSize  int
	batchBytes int

	closed    bool
	malformed uint64 // summed from the analyzers at Close
}

// ErrClosed reports a write to a closed engine.
var ErrClosed = errors.New("pipeline: engine is closed")

// shard is one worker: a bounded queue feeding a dedicated analyzer. depth
// is this worker's queue gauge inside the run-wide counters.
type shard struct {
	idx   int // position among the engine's shards
	ch    chan *batch
	an    *entrada.Analyzer
	depth *atomic.Int64
	done  chan struct{}

	// Per-slot telemetry cells (nil ⇒ no-ops): each worker accumulates
	// into its own cache-line-padded cell, updated once per batch.
	tmPkts      *telemetry.Cell // this slot's {shard="N"} series
	tmTotal     *telemetry.Cell // this slot's share of MetricPackets
	tmMalformed *telemetry.Cell
	tmUnmatched *telemetry.Cell
	tmDropped   *telemetry.Cell
}

// NewEngine starts opts.Workers shard workers that analyze packets
// streamed via WritePacket. The caller must Close it to collect the
// merged aggregates.
func NewEngine(ctx context.Context, opts Options) (*Engine, error) {
	opts = opts.withDefaults()
	if opts.Registry == nil {
		return nil, errors.New("pipeline: Options.Registry is required")
	}
	return newEngine(ctx, newAnalyzers(opts.Workers, opts), 0, newCounters(opts.Workers, opts.Telemetry), opts), nil
}

// newAnalyzers builds n fresh shard analyzers.
func newAnalyzers(n int, opts Options) []*entrada.Analyzer {
	ans := make([]*entrada.Analyzer, n)
	for i := range ans {
		ans[i] = entrada.NewAnalyzer(opts.Registry, opts.AnalyzerOpts...)
	}
	return ans
}

// newEngine wires one shard worker per analyzer (fresh ones, or the
// restored shards of a checkpoint) whose queue-depth gauges live at
// cnt.depths[slotOffset:slotOffset+len(ans)] (Run packs several engines'
// workers into one budget-wide depth array).
func newEngine(ctx context.Context, ans []*entrada.Analyzer, slotOffset int, cnt *counters, opts Options) *Engine {
	e := &Engine{
		ctx:        ctx,
		fill:       make([]*batch, len(ans)),
		pool:       newBatchPool(opts.BatchBytes, opts.BatchSize),
		cnt:        cnt,
		batchSize:  opts.BatchSize,
		batchBytes: opts.BatchBytes,
	}
	for i, an := range ans {
		slot := slotOffset + i
		sh := &shard{
			idx:   i,
			ch:    make(chan *batch, opts.QueueDepth),
			an:    an,
			depth: &cnt.depths[slot],
			done:  make(chan struct{}),
		}
		if reg := opts.Telemetry; reg != nil {
			sh.tmPkts = reg.Counter(shardLabel(metricShardPackets, slot)).Shard(0)
			sh.tmTotal = cnt.tmPackets.Shard(slot)
			sh.tmMalformed = cnt.tmMalformed.Shard(slot)
			sh.tmUnmatched = cnt.tmUnmatched.Shard(slot)
			sh.tmDropped = cnt.tmDropped.Shard(slot)
		}
		e.shards = append(e.shards, sh)
		go sh.run(cnt, e.pool)
	}
	return e
}

// run is the worker loop: drain batches, feed the shard's analyzer, and
// publish progress deltas.
func (sh *shard) run(cnt *counters, pool *sync.Pool) {
	defer close(sh.done)
	var lastMalformed, lastUnmatched, lastDropped uint64
	for b := range sh.ch {
		for _, p := range b.pkts {
			sh.an.HandlePacket(p.ts, b.buf[p.off:p.off+p.size])
		}
		sh.depth.Add(-1)
		n := uint64(len(b.pkts))
		sh.tmPkts.Add(n)
		sh.tmTotal.Add(n)
		// The worker owns its analyzer, so reading the error counters here
		// is race-free; the shared totals advance by delta.
		if m := sh.an.MalformedPackets; m != lastMalformed {
			cnt.malformed.Add(m - lastMalformed)
			sh.tmMalformed.Add(m - lastMalformed)
			lastMalformed = m
		}
		if u := sh.an.UnmatchedResp; u != lastUnmatched {
			cnt.unmatched.Add(u - lastUnmatched)
			sh.tmUnmatched.Add(u - lastUnmatched)
			lastUnmatched = u
		}
		if d := sh.an.DroppedSegments(); d != lastDropped {
			cnt.dropped.Add(d - lastDropped)
			sh.tmDropped.Add(d - lastDropped)
			lastDropped = d
		}
		if bar := b.bar; bar != nil {
			bar.visit(sh.idx, sh.an)
			if bar.pending.Add(-1) == 0 {
				bar.done()
			}
		}
		b.reset()
		pool.Put(b)
	}
}

// WritePacket dispatches one captured frame to its flow's shard, blocking
// when that shard's queue is full (backpressure) and failing fast when the
// engine's context is canceled. data is copied; the caller may reuse it.
func (e *Engine) WritePacket(ts time.Time, data []byte) error {
	if e.closed {
		return ErrClosed
	}
	e.cnt.read.Add(1)
	s := 0
	if len(e.shards) > 1 {
		s = entrada.FlowShard(data, len(e.shards))
	}
	b := e.fill[s]
	if b == nil {
		b = e.pool.Get().(*batch)
		e.fill[s] = b
	}
	b.add(ts, data)
	if b.full(e.batchSize, e.batchBytes) {
		return e.flush(s)
	}
	return nil
}

// flush sends shard s's in-progress batch to its worker.
func (e *Engine) flush(s int) error {
	b := e.fill[s]
	if b == nil || len(b.pkts) == 0 {
		return nil
	}
	e.fill[s] = nil
	return e.send(s, b)
}

// send queues b on shard s, blocking while the queue is full.
func (e *Engine) send(s int, b *batch) error {
	n := uint64(len(b.pkts)) // the worker owns b once the send succeeds
	select {
	case e.shards[s].ch <- b:
		e.shards[s].depth.Add(1)
		e.cnt.dispatched.Add(n)
		return nil
	case <-e.ctx.Done():
		return e.ctx.Err()
	}
}

// flushAll sends every shard's in-progress batch. A dispatcher that is
// about to wait for input calls it so that no packet sits in a partial
// batch for longer than the wait.
func (e *Engine) flushAll() error {
	for s := range e.shards {
		if err := e.flush(s); err != nil {
			return err
		}
	}
	return nil
}

// barrier is a cut across the shards: a marker that travels every shard's
// queue behind the packets dispatched so far. Each worker calls visit with
// its analyzer when it reaches the marker, and the worker that is last to
// do so calls done. Workers reach successive barriers in dispatch order,
// so done callbacks run in that order too.
type barrier struct {
	visit   func(shard int, an *entrada.Analyzer)
	done    func()
	pending atomic.Int32
}

// barrier flushes the partial batches and sends a marker down every queue.
// It returns once the markers are queued, not once they are reached.
func (e *Engine) barrier(visit func(shard int, an *entrada.Analyzer), done func()) error {
	if e.closed {
		return ErrClosed
	}
	if err := e.flushAll(); err != nil {
		return err
	}
	bar := &barrier{visit: visit, done: done}
	bar.pending.Store(int32(len(e.shards)))
	for s := range e.shards {
		b := e.pool.Get().(*batch)
		b.bar = bar
		if err := e.send(s, b); err != nil {
			return err
		}
	}
	return nil
}

// Close flushes the in-progress batches, joins the workers, and returns
// the merged aggregates. After a context cancellation Close still joins
// cleanly and returns the context error alongside the partial result.
func (e *Engine) Close() (*entrada.Aggregates, error) {
	if e.closed {
		return nil, ErrClosed
	}
	e.closed = true
	err := e.flushAll()
	for _, sh := range e.shards {
		close(sh.ch)
	}
	for _, sh := range e.shards {
		<-sh.done
	}
	agg := e.shards[0].an.Finish()
	e.malformed = e.shards[0].an.MalformedPackets
	for _, sh := range e.shards[1:] {
		agg.Merge(sh.an.Finish())
		e.malformed += sh.an.MalformedPackets
	}
	return agg, err
}

// Malformed returns the total undecodable frames; valid after Close.
func (e *Engine) Malformed() uint64 { return e.malformed }
