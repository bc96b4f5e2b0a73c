//go:build !linux || !(amd64 || arm64)

package udpengine

import (
	"fmt"
	"net"
)

// ClientBatch batches sends and receives on a connected UDP socket. This
// is the fallback build: the API is identical to the Linux batched
// version, but Flush degrades to one Write per queued datagram and Recv
// returns one datagram per call — the same syscall economics the
// pre-engine load generators had.
//
// A ClientBatch is not safe for concurrent use; give each worker its own.
type ClientBatch struct {
	conn  *net.UDPConn
	batch int
	slot  int

	sendArena []byte
	lens      []int
	pending   int

	recvArena []byte
	views     [][]byte
}

// NewClientBatch wraps a connected UDP socket (net.Dial "udp"). batch
// and slotSize default to 32 and 4096 when ≤ 0.
func NewClientBatch(conn *net.UDPConn, batch, slotSize int) (*ClientBatch, error) {
	if batch <= 0 {
		batch = 32
	}
	if batch > 1024 {
		batch = 1024
	}
	if slotSize <= 0 {
		slotSize = 4096
	}
	return &ClientBatch{
		conn:      conn,
		batch:     batch,
		slot:      slotSize,
		sendArena: make([]byte, batch*slotSize),
		lens:      make([]int, batch),
		recvArena: make([]byte, slotSize),
		views:     make([][]byte, 0, 1),
	}, nil
}

// Batched reports whether syscall batching is actually in effect.
func (c *ClientBatch) Batched() bool { return false }

// EnableGSO is a no-op on the fallback build: segmentation offload is a
// Linux sendmsg feature. Always reports false.
func (c *ClientBatch) EnableGSO() bool { return false }

// Queue copies pkt into the send arena, flushing first when the batch is
// full. Packets larger than the slot size are rejected.
func (c *ClientBatch) Queue(pkt []byte) error {
	if len(pkt) > c.slot {
		return fmt.Errorf("udpengine: %d-byte datagram exceeds %d-byte slot", len(pkt), c.slot)
	}
	if c.pending == c.batch {
		if err := c.Flush(); err != nil {
			return err
		}
	}
	w := c.pending
	copy(c.sendArena[w*c.slot:], pkt)
	c.lens[w] = len(pkt)
	c.pending++
	return nil
}

// Flush sends every queued datagram, one Write per packet.
func (c *ClientBatch) Flush() (err error) {
	defer func() { c.pending = 0 }()
	for w := 0; w < c.pending; w++ {
		if _, werr := c.conn.Write(c.sendArena[w*c.slot : w*c.slot+c.lens[w]]); werr != nil {
			return werr
		}
	}
	return nil
}

// Recv blocks (honoring the connection's read deadline) for one
// datagram. The returned view aliases the receive arena and is valid
// only until the next Recv.
func (c *ClientBatch) Recv() ([][]byte, error) {
	n, err := c.conn.Read(c.recvArena)
	if err != nil {
		return nil, err
	}
	c.views = append(c.views[:0], c.recvArena[:n])
	return c.views, nil
}
