package pipeline

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync/atomic"
	"time"

	"dnscentral/internal/astrie"
	"dnscentral/internal/entrada"
	"dnscentral/internal/telemetry"
)

// Checkpoint telemetry families the background writer publishes.
const (
	// MetricCheckpointSeconds is the time from a checkpoint's cut being
	// issued (the shards have yet to marshal) to its rename.
	MetricCheckpointSeconds = "entrada_checkpoint_seconds"
	// MetricCheckpointBytes gauges the size of the last checkpoint written.
	MetricCheckpointBytes = "entrada_checkpoint_bytes"
	// MetricCheckpointsSuperseded counts checkpoints dropped unwritten
	// because a newer one arrived while the writer was busy.
	MetricCheckpointsSuperseded = "entrada_checkpoints_superseded_total"
)

const (
	// checkpointName is the state file RunStream maintains in CheckpointDir.
	checkpointName = "entrada.ckpt"
	// checkpointTempPattern names the temp files a checkpoint is written to
	// before it is renamed over checkpointName.
	checkpointTempPattern = checkpointName + ".tmp*"

	// streamCheckpointVersion versions the envelope; the per-shard analyzer
	// states inside it carry entrada.CheckpointVersion. Version 1 held a
	// single analyzer state in place of the shard list.
	streamCheckpointVersion = 2
	// maxCheckpointBytes and maxCheckpointShards bound what loading a
	// checkpoint may allocate: a larger file, or one that claims more
	// shards, is rejected before it is decoded.
	maxCheckpointBytes  = 1 << 30
	maxCheckpointShards = 1024
)

// streamCheckpoint is the envelope around the shard analyzers' states:
// enough to re-open the input at the right offset, rebuild the same flow
// sharding and keep window accounting continuous across restarts. Every
// record before Offset has been handled by the shard its flow hashes to
// among len(Shards), and none after it.
type streamCheckpoint struct {
	checkpointHeader
	Shards []json.RawMessage `json:"shards"`
}

// checkpointHeader is every envelope field but the shard states.
type checkpointHeader struct {
	Version       int    `json:"version"`
	Input         string `json:"input"`
	Offset        int64  `json:"offset"`
	WindowNanos   int64  `json:"window_nanos"`
	WindowsClosed uint64 `json:"windows_closed"`
}

// writeTo writes the envelope as JSON. The shard states, valid JSON from
// MarshalState and the bulk of the bytes, are written as they are:
// json.Marshal would validate and copy every one of them again.
func (ck streamCheckpoint) writeTo(w io.Writer) (int, error) {
	head, err := json.Marshal(ck.checkpointHeader)
	if err != nil {
		return 0, err
	}
	parts := make([][]byte, 0, 2*len(ck.Shards)+2)
	parts = append(parts, head[:len(head)-1], []byte(`,"shards":[`))
	for i, state := range ck.Shards {
		if i > 0 {
			parts = append(parts, []byte(","))
		}
		parts = append(parts, state)
	}
	parts = append(parts, []byte("]}"))
	total := 0
	for _, part := range parts {
		n, err := w.Write(part)
		total += n
		if err != nil {
			return total, err
		}
	}
	return total, nil
}

// decodeCheckpoint parses and validates an envelope.
func decodeCheckpoint(data []byte) (streamCheckpoint, error) {
	var ck streamCheckpoint
	if len(data) > maxCheckpointBytes {
		return ck, fmt.Errorf("pipeline: checkpoint is %d bytes, limit %d", len(data), maxCheckpointBytes)
	}
	if err := json.Unmarshal(data, &ck); err != nil {
		return ck, fmt.Errorf("pipeline: decoding checkpoint: %w", err)
	}
	if ck.Version != streamCheckpointVersion {
		return ck, fmt.Errorf("pipeline: checkpoint version %d, want %d", ck.Version, streamCheckpointVersion)
	}
	if n := len(ck.Shards); n < 1 || n > maxCheckpointShards {
		return ck, fmt.Errorf("pipeline: checkpoint has %d shards, want 1 to %d", n, maxCheckpointShards)
	}
	if ck.Offset < 0 {
		return ck, fmt.Errorf("pipeline: checkpoint offset %d is negative", ck.Offset)
	}
	return ck, nil
}

// restoreShards rebuilds one analyzer per shard state.
func (ck streamCheckpoint) restoreShards(reg *astrie.Registry) ([]*entrada.Analyzer, error) {
	ans := make([]*entrada.Analyzer, len(ck.Shards))
	for i, state := range ck.Shards {
		an, err := entrada.RestoreAnalyzer(reg, state)
		if err != nil {
			return nil, fmt.Errorf("pipeline: checkpoint shard %d of %d: %w", i, len(ck.Shards), err)
		}
		ans[i] = an
	}
	return ans, nil
}

// loadCheckpoint reads the checkpoint if one exists; ok=false means a
// fresh start.
func loadCheckpoint(dir string) (ck streamCheckpoint, ok bool, err error) {
	f, err := os.Open(filepath.Join(dir, checkpointName))
	if errors.Is(err, os.ErrNotExist) {
		return ck, false, nil
	}
	if err != nil {
		return ck, false, fmt.Errorf("pipeline: reading checkpoint: %w", err)
	}
	defer f.Close()
	// One byte past the limit is enough for decodeCheckpoint to refuse it.
	data, err := io.ReadAll(io.LimitReader(f, maxCheckpointBytes+1))
	if err != nil {
		return ck, false, fmt.Errorf("pipeline: reading checkpoint: %w", err)
	}
	ck, err = decodeCheckpoint(data)
	return ck, err == nil, err
}

// sweepCheckpointTemps removes the temp files of writers that were killed
// between CreateTemp and Rename; nothing else ever deletes them.
func sweepCheckpointTemps(dir string) error {
	stale, err := filepath.Glob(filepath.Join(dir, checkpointTempPattern))
	if err != nil {
		return fmt.Errorf("pipeline: checkpoint dir: %w", err)
	}
	for _, path := range stale {
		if err := os.Remove(path); err != nil && !errors.Is(err, os.ErrNotExist) {
			return fmt.Errorf("pipeline: removing stale checkpoint temp file: %w", err)
		}
	}
	return nil
}

// writeCheckpoint persists atomically: a crash mid-write leaves the
// previous checkpoint intact, never a torn one, and once it returns the
// new one survives power loss. It returns the bytes written.
func writeCheckpoint(dir string, ck streamCheckpoint) (int, error) {
	tmp, err := os.CreateTemp(dir, checkpointTempPattern)
	if err != nil {
		return 0, fmt.Errorf("pipeline: checkpoint temp file: %w", err)
	}
	size, err := ck.writeTo(tmp)
	if err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return 0, fmt.Errorf("pipeline: writing checkpoint: %w", err)
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return 0, fmt.Errorf("pipeline: syncing checkpoint: %w", err)
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return 0, fmt.Errorf("pipeline: closing checkpoint: %w", err)
	}
	if err := os.Rename(tmp.Name(), filepath.Join(dir, checkpointName)); err != nil {
		os.Remove(tmp.Name())
		return 0, fmt.Errorf("pipeline: publishing checkpoint: %w", err)
	}
	// The rename is only durable once the directory entry is.
	d, err := os.Open(dir)
	if err != nil {
		return 0, fmt.Errorf("pipeline: syncing checkpoint dir: %w", err)
	}
	defer d.Close()
	if err := d.Sync(); err != nil {
		return 0, fmt.Errorf("pipeline: syncing checkpoint dir: %w", err)
	}
	return size, nil
}

// pendingCheckpoint is a complete checkpoint on its way to disk.
type pendingCheckpoint struct {
	ck     streamCheckpoint
	issued time.Time // when the reader issued the cut
}

// checkpointWriter writes checkpoints on its own goroutine, so that
// encoding, fsync and rename cost the packet path nothing. It holds at
// most one checkpoint that is waiting to be written; a newer one replaces
// it, because only the newest checkpoint is ever read back.
type checkpointWriter struct {
	dir  string
	box  chan pendingCheckpoint
	done chan struct{}
	err  atomic.Pointer[error] // the first write error

	tmSeconds    *telemetry.Histogram
	tmBytes      *telemetry.Gauge
	tmSuperseded *telemetry.Counter
}

func startCheckpointWriter(dir string, reg *telemetry.Registry) *checkpointWriter {
	w := &checkpointWriter{
		dir:          dir,
		box:          make(chan pendingCheckpoint, 1),
		done:         make(chan struct{}),
		tmSeconds:    reg.Histogram(MetricCheckpointSeconds),
		tmBytes:      reg.Gauge(MetricCheckpointBytes),
		tmSuperseded: reg.Counter(MetricCheckpointsSuperseded),
	}
	go w.run()
	return w
}

func (w *checkpointWriter) run() {
	defer close(w.done)
	for p := range w.box {
		n, err := writeCheckpoint(w.dir, p.ck)
		if err != nil {
			w.err.CompareAndSwap(nil, &err)
			continue
		}
		w.tmSeconds.Observe(time.Since(p.issued))
		w.tmBytes.Set(int64(n))
	}
}

// submit hands p to the writer without waiting for it. Only one goroutine
// may call submit.
func (w *checkpointWriter) submit(p pendingCheckpoint) {
	for {
		select {
		case w.box <- p:
			return
		default:
		}
		// The box is full: take the older checkpoint out, unless the writer
		// gets to it first, and try again.
		select {
		case <-w.box:
			w.tmSuperseded.Inc()
		default:
		}
	}
}

// failed returns the first write error so far.
func (w *checkpointWriter) failed() error {
	if p := w.err.Load(); p != nil {
		return *p
	}
	return nil
}

// close writes what is still in the box, stops the writer and returns the
// first write error of its life. submit must not be called after it.
func (w *checkpointWriter) close() error {
	close(w.box)
	<-w.done
	return w.failed()
}
