package pipeline

import (
	"sync"
	"time"
)

// batch carries a run of packets from the dispatcher to one shard worker.
// Frame bytes are packed into a single arena buffer so a full batch costs
// two allocations instead of one per packet (pcap readers reuse their
// internal buffer, so every dispatched frame must be copied anyway).
//
// A batch with bar set is a barrier marker: it carries no packets and
// travels the same queue, so the worker meets it exactly after every
// packet dispatched before it and before every packet dispatched after.
type batch struct {
	buf  []byte
	pkts []pktRef
	bar  *barrier
}

// pktRef locates one packet inside the batch arena.
type pktRef struct {
	ts   time.Time
	off  int
	size int
}

func (b *batch) add(ts time.Time, data []byte) {
	off := len(b.buf)
	b.buf = append(b.buf, data...)
	b.pkts = append(b.pkts, pktRef{ts: ts, off: off, size: len(data)})
}

func (b *batch) full(maxPackets, maxBytes int) bool {
	return len(b.pkts) >= maxPackets || len(b.buf) >= maxBytes
}

func (b *batch) reset() {
	b.buf = b.buf[:0]
	b.pkts = b.pkts[:0]
	b.bar = nil
}

// newBatchPool builds the recycling pool batches flow through: dispatcher
// Get → channel → worker → Put.
func newBatchPool(batchBytes, batchSize int) *sync.Pool {
	return &sync.Pool{New: func() any {
		return &batch{
			buf:  make([]byte, 0, batchBytes),
			pkts: make([]pktRef, 0, batchSize),
		}
	}}
}
