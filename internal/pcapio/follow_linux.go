package pcapio

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"os"
	"path/filepath"
	"syscall"
	"time"
)

// watchMask is every change to a directory entry that can make a quiet
// followed file readable again: a write or a writer's close, the file
// appearing, and either half of a rename-and-recreate rotation.
const watchMask = syscall.IN_MODIFY | syscall.IN_CLOSE_WRITE | syscall.IN_CREATE |
	syscall.IN_MOVED_TO | syscall.IN_MOVED_FROM | syscall.IN_DELETE

// watcher wakes a follow reader when its file changes. It holds one
// inotify descriptor watching the file's parent directory, so the watch
// outlives the file: it sees the file appear and sees it replaced. The
// descriptor is non-blocking and wrapped in an os.File, which puts it in
// the runtime poller, so a read honours the deadline that bounds a wait.
type watcher struct {
	f    *os.File
	name []byte // base name of the followed file
	buf  []byte // event buffer, reused by every wait
	stop func() bool
}

// newWatcher watches path's directory, or returns nil when inotify is not
// available (or the directory does not exist), in which case the reader
// polls. ctx's cancellation interrupts a wait in progress.
func newWatcher(ctx context.Context, path string) *watcher {
	fd, err := syscall.InotifyInit1(syscall.IN_NONBLOCK | syscall.IN_CLOEXEC)
	if err != nil {
		return nil
	}
	if _, err := syscall.InotifyAddWatch(fd, filepath.Dir(path), watchMask); err != nil {
		syscall.Close(fd)
		return nil
	}
	w := &watcher{
		f:    os.NewFile(uintptr(fd), "inotify"),
		name: []byte(filepath.Base(path)),
		buf:  make([]byte, 4096),
	}
	// A deadline in the past ends the read a wait is blocked in; the wait
	// checks ctx after setting its own deadline, so none is lost.
	w.stop = context.AfterFunc(ctx, func() { _ = w.f.SetReadDeadline(time.Unix(1, 0)) })
	return w
}

// wait blocks for at most d until an event names the followed file (or
// the queue overflowed, which may have dropped one). It reports whether
// an event ended it; a timeout or a cancelled ctx returns false and no
// error, and the caller checks ctx. Each read drains every queued event.
func (w *watcher) wait(ctx context.Context, d time.Duration) (bool, error) {
	if err := w.f.SetReadDeadline(time.Now().Add(d)); err != nil {
		return false, err
	}
	if ctx.Err() != nil {
		return false, nil
	}
	for {
		n, err := w.f.Read(w.buf)
		if errors.Is(err, os.ErrDeadlineExceeded) {
			return false, nil
		}
		if err != nil {
			return false, err
		}
		if w.matches(w.buf[:n]) {
			return true, nil
		}
	}
}

// matches reports whether a read's events concern the followed file.
func (w *watcher) matches(events []byte) bool {
	for len(events) >= syscall.SizeofInotifyEvent {
		mask := binary.NativeEndian.Uint32(events[4:8])
		nameLen := int(binary.NativeEndian.Uint32(events[12:16]))
		end := syscall.SizeofInotifyEvent + nameLen
		if end > len(events) {
			return true // cannot happen; waking is always safe
		}
		name := bytes.TrimRight(events[syscall.SizeofInotifyEvent:end], "\x00")
		if mask&syscall.IN_Q_OVERFLOW != 0 || bytes.Equal(name, w.name) {
			return true
		}
		events = events[end:]
	}
	return false
}

// close releases the inotify descriptor.
func (w *watcher) close() error {
	w.stop()
	return w.f.Close()
}
