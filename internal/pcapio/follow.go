package pcapio

import (
	"context"
	"errors"
	"fmt"
	"io"
	"os"
	"sync/atomic"
	"time"
)

// Follow mode: tail a capture file that a live writer is still appending
// to, the way ENTRADA ingests the .nl server pcaps continuously. The
// torn final record a mid-write snapshot exposes is not an error here —
// the reader simply waits for the rest of the bytes to arrive — and a
// rotated file (new inode at the same path, or truncate-in-place) is
// picked up from its beginning.
//
// A reader that has caught up waits for the file to change, not for a
// clock. On Linux one inotify watch on the file's directory wakes it on
// a write, on the file appearing and on a rotation; the poll interval
// stays as the fallback timeout, so no event is needed for correctness
// (the inotify queue can overflow, a network filesystem sends none).
// Elsewhere, and wherever the watch cannot be set up, the reader polls.

// DefaultFollowPoll is the fallback interval at which a follow reader
// re-checks a quiet file for growth when no change event woke it (on
// platforms without one, the polling period).
const DefaultFollowPoll = 50 * time.Millisecond

type followConfig struct {
	poll       time.Duration
	idleExit   time.Duration
	resumeAt   int64
	beforeWait func()
}

// FollowOption configures a FollowReader.
type FollowOption func(*followConfig)

// FollowPoll sets the fallback re-check interval (default
// DefaultFollowPoll): the longest a quiet reader waits before it looks at
// the file again when no change event wakes it first.
func FollowPoll(d time.Duration) FollowOption {
	return func(c *followConfig) { c.poll = d }
}

// FollowIdleExit makes the reader return io.EOF once the file has not
// grown for d. Zero (the default) follows forever, until the context is
// cancelled or the file rotates away and never comes back.
func FollowIdleExit(d time.Duration) FollowOption {
	return func(c *followConfig) { c.idleExit = d }
}

// FollowResumeAt discards every record that ends at or before byte
// offset off of the followed file before delivering packets. Offsets are
// the decoder's Offset() values — complete-record boundaries — so a
// checkpointed offset resumes exactly after the last processed record.
func FollowResumeAt(off int64) FollowOption {
	return func(c *followConfig) { c.resumeAt = off }
}

// FollowBeforeWait makes the reader call fn, on the goroutine inside
// ReadPacket, each time it is about to wait for the file to change
// because it has no complete record to give. A consumer that batches the
// packets it reads flushes its partial batch there, so a quiet capture
// holds nothing back.
func FollowBeforeWait(fn func()) FollowOption {
	return func(c *followConfig) { c.beforeWait = fn }
}

// FollowReader is a PacketReader that tails a growing pcap or pcapng
// file. ReadPacket blocks until a complete record is available, the
// context is cancelled, or (with FollowIdleExit) the file goes quiet.
// It is not safe for concurrent use.
type FollowReader struct {
	ctx  context.Context
	path string
	cfg  followConfig

	tail  *tailFile
	dec   PacketReader
	watch *watcher    // nil: poll
	timer *time.Timer // the poll's, reused by every wait

	eventWakes atomic.Uint64
	pollWakes  atomic.Uint64

	committed  int64 // decoder offset after the last delivered packet
	resumeSkip int64 // discard records ending at or before this offset
	truncTails uint64
	rotations  uint64
}

// NewFollowReader tails the file at path. The file may not exist yet;
// the first ReadPacket waits for it. ctx cancellation makes any blocked
// ReadPacket return promptly with ctx's error.
func NewFollowReader(ctx context.Context, path string, opts ...FollowOption) *FollowReader {
	cfg := followConfig{poll: DefaultFollowPoll}
	for _, o := range opts {
		o(&cfg)
	}
	return &FollowReader{ctx: ctx, path: path, cfg: cfg, resumeSkip: cfg.resumeAt,
		watch: newWatcher(ctx, path)}
}

// Offset returns the byte offset of the last complete record delivered
// (or skipped during resume) in the currently-followed file. It is the
// value to checkpoint and later hand to FollowResumeAt.
func (fr *FollowReader) Offset() int64 { return fr.committed }

// TruncatedTails counts torn final records observed when the follow
// ended (idle-exit or rotation) mid-record.
func (fr *FollowReader) TruncatedTails() uint64 { return fr.truncTails }

// Rotations counts file replacements detected and re-opened.
func (fr *FollowReader) Rotations() uint64 { return fr.rotations }

// EventWakeups counts waits that a change event ended. It is safe to
// call from any goroutine.
func (fr *FollowReader) EventWakeups() uint64 { return fr.eventWakes.Load() }

// PollWakeups counts waits that the fallback poll interval (or the
// idle-exit deadline) ended. It is safe to call from any goroutine.
func (fr *FollowReader) PollWakeups() uint64 { return fr.pollWakes.Load() }

// BytesBehind returns how many bytes of the followed file lie past the
// last delivered record: what the consumer has yet to read. It costs
// one fstat, and is 0 while no file is open.
func (fr *FollowReader) BytesBehind() int64 {
	if fr.tail == nil {
		return 0
	}
	fi, err := fr.tail.f.Stat()
	if err != nil {
		return 0
	}
	return max(fi.Size()-fr.committed, 0)
}

// Close releases the file handle and the change watcher; a reader used
// after Close polls.
func (fr *FollowReader) Close() error {
	var err error
	if fr.watch != nil {
		err = fr.watch.close()
		fr.watch = nil
	}
	if fr.tail != nil {
		err = errors.Join(fr.tail.f.Close(), err)
		fr.tail, fr.dec = nil, nil
	}
	return err
}

// wait blocks until the file may have changed: a change event, the poll
// interval or the idle deadline (when not zero), whichever comes first.
// It returns the context's error once the context is done.
func (fr *FollowReader) wait(idleDeadline time.Time) error {
	if fr.cfg.beforeWait != nil {
		fr.cfg.beforeWait()
	}
	d := fr.cfg.poll
	if !idleDeadline.IsZero() {
		d = min(d, time.Until(idleDeadline))
	}
	event := false
	if fr.watch != nil {
		var err error
		if event, err = fr.watch.wait(fr.ctx, d); err != nil {
			// A watcher that fails leaves the reader polling.
			_ = fr.watch.close()
			fr.watch = nil
		}
	}
	if fr.watch == nil {
		fr.sleep(d)
	}
	if err := fr.ctx.Err(); err != nil {
		return err
	}
	if event {
		fr.eventWakes.Add(1)
	} else {
		fr.pollWakes.Add(1)
	}
	return nil
}

// sleep waits d or until the context is done, on one reused timer.
func (fr *FollowReader) sleep(d time.Duration) {
	if fr.timer == nil {
		fr.timer = time.NewTimer(d)
	} else {
		fr.timer.Reset(d)
	}
	select {
	case <-fr.ctx.Done():
		fr.timer.Stop()
		select { // drop a tick that fired meanwhile, so Reset starts clean
		case <-fr.timer.C:
		default:
		}
	case <-fr.timer.C:
	}
}

// open waits for the file to exist, then builds the tail and decoder.
func (fr *FollowReader) open() error {
	var idleDeadline time.Time
	if fr.cfg.idleExit > 0 {
		idleDeadline = time.Now().Add(fr.cfg.idleExit)
	}
	for {
		f, err := os.Open(fr.path)
		if err == nil {
			fi, serr := f.Stat()
			if serr != nil {
				f.Close()
				return fmt.Errorf("pcapio: follow stat: %w", serr)
			}
			fr.tail = &tailFile{fr: fr, f: f, fi: fi}
			dec, derr := Open(fr.tail)
			if derr != nil {
				f.Close()
				fr.tail = nil
				return derr
			}
			fr.dec = dec
			return nil
		}
		if !errors.Is(err, os.ErrNotExist) {
			return fmt.Errorf("pcapio: follow open: %w", err)
		}
		if !idleDeadline.IsZero() && !time.Now().Before(idleDeadline) {
			return io.EOF
		}
		if err := fr.wait(idleDeadline); err != nil {
			return err
		}
	}
}

// decOffset returns the current decoder's complete-record offset.
func (fr *FollowReader) decOffset() int64 {
	switch d := fr.dec.(type) {
	case *Reader:
		return d.Offset()
	case *NGReader:
		return d.Offset()
	}
	return 0
}

// ReadPacket returns the next packet from the tailed file, blocking
// through torn records until the writer completes them. io.EOF means the
// follow ended: idle-exit fired, or the file vanished for good.
func (fr *FollowReader) ReadPacket() (Packet, error) {
	for {
		if fr.dec == nil {
			if err := fr.open(); err != nil {
				if fr.ctx.Err() != nil {
					return Packet{}, fr.ctx.Err()
				}
				if err == io.EOF || errors.Is(err, io.ErrUnexpectedEOF) {
					// Idle-exit while waiting for the file or its header.
					return Packet{}, io.EOF
				}
				return Packet{}, err
			}
		}
		pkt, err := fr.dec.ReadPacket()
		if err == nil {
			fr.committed = fr.decOffset()
			if fr.committed <= fr.resumeSkip {
				continue // already processed before the checkpoint
			}
			return pkt, nil
		}
		if fr.ctx.Err() != nil {
			return Packet{}, fr.ctx.Err()
		}
		if errors.Is(err, ErrTruncatedRecord) {
			// The tail gave up (idle-exit or rotation) mid-record: the
			// torn bytes are not an error, just the end of this follow.
			fr.truncTails++
			err = io.EOF
		}
		if err == io.EOF {
			if fr.tail != nil && fr.tail.rotated {
				// New file at the same path: start over from its head.
				fr.rotations++
				fr.tail.f.Close()
				fr.tail, fr.dec = nil, nil
				fr.committed, fr.resumeSkip = 0, 0
				continue
			}
			return Packet{}, io.EOF
		}
		return Packet{}, err
	}
}

// tailFile is an io.Reader over a growing file: EOF from the underlying
// file becomes a wait-and-retry loop that only reports io.EOF when the
// file rotates away or stays quiet past the idle-exit deadline.
type tailFile struct {
	fr *FollowReader
	f  *os.File
	fi os.FileInfo

	delivered int64
	rotated   bool
}

func (t *tailFile) Read(p []byte) (int, error) {
	var idleDeadline time.Time
	if t.fr.cfg.idleExit > 0 {
		idleDeadline = time.Now().Add(t.fr.cfg.idleExit)
	}
	for {
		n, err := t.f.Read(p)
		if n > 0 {
			t.delivered += int64(n)
			return n, nil
		}
		if err != nil && err != io.EOF {
			return 0, err
		}
		// At the current end of the file. Rotation first: a new inode at
		// the path, a shrunk file (truncate-in-place), or a vanished path
		// all mean this handle will never grow again.
		if t.rotatedNow() {
			t.rotated = true
			return 0, io.EOF
		}
		if !idleDeadline.IsZero() && !time.Now().Before(idleDeadline) {
			return 0, io.EOF
		}
		if err := t.fr.wait(idleDeadline); err != nil {
			return 0, err
		}
	}
}

func (t *tailFile) rotatedNow() bool {
	fi, err := os.Stat(t.fr.path)
	if err != nil {
		// Path gone: mid-rotation. Treat as rotated; the reopen path
		// waits for the replacement to appear.
		return true
	}
	if !os.SameFile(t.fi, fi) {
		return true
	}
	return fi.Size() < t.delivered
}
