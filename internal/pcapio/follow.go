package pcapio

import (
	"context"
	"errors"
	"fmt"
	"io"
	"os"
	"time"
)

// Follow mode: tail a capture file that a live writer is still appending
// to, the way ENTRADA ingests the .nl server pcaps continuously. The
// torn final record a mid-write snapshot exposes is not an error here —
// the reader simply waits for the rest of the bytes to arrive — and a
// rotated file (new inode at the same path, or truncate-in-place) is
// picked up from its beginning.

// DefaultFollowPoll is how often a follow reader re-checks a quiet file
// for growth.
const DefaultFollowPoll = 50 * time.Millisecond

type followConfig struct {
	poll       time.Duration
	idleExit   time.Duration
	resumeAt   int64
	beforeWait func()
}

// FollowOption configures a FollowReader.
type FollowOption func(*followConfig)

// FollowPoll sets the growth-poll interval (default DefaultFollowPoll).
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
// ReadPacket, each time it is about to sleep for a poll interval because
// the file has no complete record to give. A consumer that batches the
// packets it reads flushes its partial batch there, so a quiet capture
// holds nothing back.
func FollowBeforeWait(fn func()) FollowOption {
	return func(c *followConfig) { c.beforeWait = fn }
}

// wait sleeps one poll interval, or returns the context's error.
func (c *followConfig) wait(ctx context.Context) error {
	if c.beforeWait != nil {
		c.beforeWait()
	}
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-time.After(c.poll):
		return nil
	}
}

// FollowReader is a PacketReader that tails a growing pcap or pcapng
// file. ReadPacket blocks until a complete record is available, the
// context is cancelled, or (with FollowIdleExit) the file goes quiet.
// It is not safe for concurrent use.
type FollowReader struct {
	ctx  context.Context
	path string
	cfg  followConfig

	tail *tailFile
	dec  PacketReader

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
	return &FollowReader{ctx: ctx, path: path, cfg: cfg, resumeSkip: cfg.resumeAt}
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

// Close releases the underlying file handle.
func (fr *FollowReader) Close() error {
	if fr.tail == nil {
		return nil
	}
	err := fr.tail.f.Close()
	fr.tail, fr.dec = nil, nil
	return err
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
			fr.tail = &tailFile{
				ctx:  fr.ctx,
				f:    f,
				path: fr.path,
				fi:   fi,
				cfg:  &fr.cfg,
			}
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
		if !idleDeadline.IsZero() && time.Now().After(idleDeadline) {
			return io.EOF
		}
		if err := fr.cfg.wait(fr.ctx); err != nil {
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
// file becomes a poll-and-retry loop that only reports io.EOF when the
// file rotates away or stays quiet past the idle-exit deadline.
type tailFile struct {
	ctx  context.Context
	f    *os.File
	path string
	fi   os.FileInfo
	cfg  *followConfig

	delivered int64
	rotated   bool
}

func (t *tailFile) Read(p []byte) (int, error) {
	var idleDeadline time.Time
	if t.cfg.idleExit > 0 {
		idleDeadline = time.Now().Add(t.cfg.idleExit)
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
		if !idleDeadline.IsZero() && time.Now().After(idleDeadline) {
			return 0, io.EOF
		}
		if err := t.cfg.wait(t.ctx); err != nil {
			return 0, err
		}
	}
}

func (t *tailFile) rotatedNow() bool {
	fi, err := os.Stat(t.path)
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
