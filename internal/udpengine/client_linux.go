//go:build linux && (amd64 || arm64)

package udpengine

import (
	"fmt"
	"net"
	"syscall"
)

// ClientBatch batches sends and receives on a connected UDP socket — the
// load-generator counterpart of the serving engine, so a stub population
// can produce traffic as fast as the batched servers consume it. Queue
// copies datagrams into a contiguous send arena (flushing automatically
// when the batch fills), Flush pushes the remainder out in one sendmmsg,
// and Recv drains up to a batch of answers per recvmmsg. On this
// platform every call moves up to Batch datagrams per syscall; the
// fallback build runs the identical API over one-datagram syscalls.
//
// A ClientBatch is not safe for concurrent use; give each worker its own.
type ClientBatch struct {
	conn  *net.UDPConn
	rc    syscall.RawConn
	batch int
	slot  int

	sendArena []byte
	sendIovs  []iovec
	sendHdrs  []mmsghdr
	pending   int
	sendOff   int
	nsent     int
	werr      error
	wfn       func(fd uintptr) bool

	recvArena []byte
	recvIovs  []iovec
	recvHdrs  []mmsghdr
	views     [][]byte
	nrecv     int
	rerr      error
	rfn       func(fd uintptr) bool

	// Send-side GSO state (EnableGSO): queued equal-size runs coalesce
	// into UDP_SEGMENT super-datagrams. The connected socket fixes the
	// destination, so every run groups on size alone. The plain
	// sendHdrs stay valid, giving runtime refusals a byte-identical
	// plain resend.
	gso      bool
	gsoHdrs  []mmsghdr
	gsoCtl   []byte
	gsoStart []int
	ngroups  int
	goff     int
	gnsent   int
	gwerr    error
	gwfn     func(fd uintptr) bool
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
	rc, err := conn.SyscallConn()
	if err != nil {
		return nil, fmt.Errorf("udpengine: client syscall conn: %w", err)
	}
	c := &ClientBatch{
		conn:      conn,
		rc:        rc,
		batch:     batch,
		slot:      slotSize,
		sendArena: make([]byte, batch*slotSize),
		sendIovs:  make([]iovec, batch),
		sendHdrs:  make([]mmsghdr, batch),
		recvArena: make([]byte, batch*slotSize),
		recvIovs:  make([]iovec, batch),
		recvHdrs:  make([]mmsghdr, batch),
		views:     make([][]byte, 0, batch),
	}
	for i := 0; i < batch; i++ {
		// Connected socket: no per-datagram sockaddr, the kernel routes
		// by the connection's peer.
		c.sendIovs[i] = iovec{base: &c.sendArena[i*slotSize]}
		c.sendHdrs[i].hdr.iov = &c.sendIovs[i]
		c.sendHdrs[i].hdr.iovlen = 1
		c.recvIovs[i] = iovec{base: &c.recvArena[i*slotSize], len: uint64(slotSize)}
		c.recvHdrs[i].hdr.iov = &c.recvIovs[i]
		c.recvHdrs[i].hdr.iovlen = 1
	}
	c.wfn = func(fd uintptr) bool {
		c.nsent, c.werr = sendmmsg(fd, c.sendHdrs[c.sendOff:c.pending], syscall.MSG_DONTWAIT)
		return c.werr != syscall.EAGAIN
	}
	c.rfn = func(fd uintptr) bool {
		c.nrecv, c.rerr = recvmmsg(fd, c.recvHdrs, syscall.MSG_DONTWAIT)
		return c.rerr != syscall.EAGAIN
	}
	return c, nil
}

// Batched reports whether syscall batching is actually in effect.
func (c *ClientBatch) Batched() bool { return true }

// EnableGSO turns on segmentation offload for this client's sends:
// Flush coalesces runs of equal-size queued datagrams into one
// UDP_SEGMENT super-datagram each, so a batch of uniform queries costs
// the kernel one stack traversal instead of one per packet. Reports
// whether the kernel accepted the option; on refusal (pre-4.18) the
// client keeps its plain sendmmsg behavior. Receive-side GRO is left
// off — answers are consumed one Recv view per datagram either way.
func (c *ClientBatch) EnableGSO() bool {
	ok := false
	if err := c.rc.Control(func(fd uintptr) { ok = probeGSO(int(fd)) }); err != nil || !ok {
		return false
	}
	c.gso = true
	c.gsoHdrs = make([]mmsghdr, c.batch)
	c.gsoCtl = alignedBytes(c.batch * gsoCtlSlot)
	c.gsoStart = make([]int, c.batch+1)
	c.gwfn = func(fd uintptr) bool {
		c.gnsent, c.gwerr = sendmmsg(fd, c.gsoHdrs[c.goff:c.ngroups], syscall.MSG_DONTWAIT)
		return c.gwerr != syscall.EAGAIN
	}
	return true
}

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
	c.sendIovs[w].len = uint64(len(pkt))
	c.pending++
	return nil
}

// Flush sends every queued datagram, resuming across partial sendmmsg
// returns. With GSO enabled the batch goes out as super-datagrams; a
// runtime refusal of a segmented send disables GSO for the rest of the
// client's life and resends the remainder through the plain path.
func (c *ClientBatch) Flush() (err error) {
	if c.pending == 0 {
		return nil
	}
	defer func() { c.pending = 0 }()
	from := 0
	if c.gso && c.pending > 1 {
		from, err = c.flushGSO()
		if err != nil {
			return err
		}
	}
	c.sendOff = from
	for c.sendOff < c.pending {
		if werr := c.rc.Write(c.wfn); werr != nil {
			return werr
		}
		if c.werr != nil {
			return c.werr
		}
		if c.nsent <= 0 {
			return fmt.Errorf("udpengine: sendmmsg made no progress")
		}
		c.sendOff += c.nsent
	}
	return nil
}

// flushGSO groups the queued batch into equal-size runs (each at most
// UDP_MAX_SEGMENTS segments / the UDP payload cap, a shorter datagram
// only as a run's tail) and sends one UDP_SEGMENT mmsghdr per run.
// Returns the index of the first datagram not handed to the kernel;
// a refused segmented send permanently drops back to plain mode.
func (c *ClientBatch) flushGSO() (int, error) {
	ng := 0
	for i := 0; i < c.pending; {
		segLen := c.sendIovs[i].len
		total := segLen
		j := i + 1
		for j < c.pending && j-i < maxGSOSegments {
			l := c.sendIovs[j].len
			if l > segLen || total+l > maxGSOBytes {
				break
			}
			total += l
			j++
			if l < segLen {
				break
			}
		}
		c.gsoStart[ng] = i
		h := &c.gsoHdrs[ng]
		*h = c.sendHdrs[i]
		h.hdr.flags = 0
		h.len = 0
		if j-i > 1 {
			h.hdr.iovlen = uint64(j - i)
			ctl := c.gsoCtl[ng*gsoCtlSlot : (ng+1)*gsoCtlSlot]
			h.hdr.control = &ctl[0]
			h.hdr.controllen = putGSOCmsg(ctl, uint16(segLen))
		} else {
			h.hdr.iovlen = 1
			h.hdr.control = nil
			h.hdr.controllen = 0
		}
		ng++
		i = j
	}
	c.ngroups = ng
	c.gsoStart[ng] = c.pending

	c.goff = 0
	for c.goff < c.ngroups {
		if werr := c.rc.Write(c.gwfn); werr != nil {
			return c.pending, werr
		}
		if c.gwerr != nil {
			if segs := c.gsoStart[c.goff+1] - c.gsoStart[c.goff]; segs > 1 {
				c.gso = false
				return c.gsoStart[c.goff], nil // plain path resends the rest
			}
			return c.pending, c.gwerr
		}
		if c.gnsent <= 0 {
			return c.pending, fmt.Errorf("udpengine: segmented sendmmsg made no progress")
		}
		c.goff += c.gnsent
	}
	return c.pending, nil
}

// Recv blocks (honoring the connection's read deadline) until at least
// one datagram arrives, then drains up to a batch of them in one
// recvmmsg. The returned views alias the receive arena and are valid
// only until the next Recv.
func (c *ClientBatch) Recv() ([][]byte, error) {
	if err := c.rc.Read(c.rfn); err != nil {
		return nil, err
	}
	if c.rerr != nil {
		return nil, c.rerr
	}
	c.views = c.views[:0]
	for i := 0; i < c.nrecv; i++ {
		n := int(c.recvHdrs[i].len)
		c.views = append(c.views, c.recvArena[i*c.slot:i*c.slot+n])
	}
	return c.views, nil
}
