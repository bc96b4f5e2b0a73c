package pipeline

import (
	"bytes"
	"context"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"dnscentral/internal/cloudmodel"
	"dnscentral/internal/entrada"
	"dnscentral/internal/pcapio"
	"dnscentral/internal/telemetry"
)

// streamOpts builds the common StreamOptions the tests use: fast polls
// and a short idle-exit so a finished file terminates the stream.
func streamOpts(o StreamOptions) StreamOptions {
	o.Poll = time.Millisecond
	if o.IdleExit == 0 {
		o.IdleExit = 200 * time.Millisecond
	}
	return o
}

// writeCapture puts a capture where RunStream can follow it.
func writeCapture(t testing.TB, blob []byte) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "cap.pcap")
	if err := os.WriteFile(path, blob, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// withRetransmits repeats every ninth frame of a capture a millisecond
// later: repeated UDP queries (the earlier one is finalized unanswered),
// repeated responses (unmatched) and repeated TCP segments (reassembly
// sees an overlap), which the generator itself never emits.
func withRetransmits(t testing.TB, blob []byte) []byte {
	t.Helper()
	r, err := pcapio.NewReader(bytes.NewReader(blob))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	w := pcapio.NewWriter(&buf, pcapio.WithNanosecondResolution())
	for n := 0; ; n++ {
		pkt, err := r.ReadPacket()
		if err != nil {
			break
		}
		if err := w.WritePacket(pkt.Timestamp, pkt.Data); err != nil {
			t.Fatal(err)
		}
		if n%9 == 0 {
			if err := w.WritePacket(pkt.Timestamp.Add(time.Millisecond), pkt.Data); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestStreamMatchesBatch: following a finished capture to idle-exit must
// produce aggregates byte-identical to one bare analyzer over the same
// file, for any number of shards — the windowing machinery must be
// invisible to the final result.
func TestStreamMatchesBatch(t *testing.T) {
	blob, reg, origin := genWeek(t, cloudmodel.VantageNL, 4000, 5)
	anOpts := []entrada.Option{entrada.WithZoneOrigin(origin)}
	path := writeCapture(t, blob)

	refAgg, _ := reference(t, reg, anOpts, blob)
	want := reportBytes(t, refAgg, reg)

	for _, workers := range []int{1, 2, 4} {
		streamAgg, res, err := RunStream(context.Background(), path, streamOpts(StreamOptions{
			Options: Options{Workers: workers, Registry: reg, AnalyzerOpts: anOpts},
			Window:  time.Hour, // capture time: a generated week has many hours
		}))
		if err != nil {
			t.Fatal(err)
		}
		if got := reportBytes(t, streamAgg, reg); !bytes.Equal(got, want) {
			t.Fatalf("workers=%d: streamed report differs from the reference", workers)
		}
		if len(res.Windows) == 0 {
			t.Fatalf("workers=%d: no windows emitted", workers)
		}
		if res.Offset != int64(len(blob)) {
			t.Fatalf("workers=%d: final offset %d, want %d", workers, res.Offset, len(blob))
		}
		if res.Stats.Workers != workers || len(res.Stats.QueueDepths) != workers {
			t.Fatalf("workers=%d: Stats reports %d workers, %d queues", workers, res.Stats.Workers, len(res.Stats.QueueDepths))
		}
		if res.Stats.PacketsDispatched != res.Stats.PacketsRead || res.Stats.PacketsRead == 0 {
			t.Fatalf("workers=%d: read %d packets, dispatched %d", workers, res.Stats.PacketsRead, res.Stats.PacketsDispatched)
		}
	}
}

// TestStreamWindowSeriesShardIndependent: a query is finalized by packets
// of its own flow alone (its response, a retransmission of it, its TCP
// stream), so the cut at a window boundary counts the same queries however
// the flows are spread over shards. The whole series — index, queries and
// per-provider counts of every window — must therefore be the same for 1,
// 2 and 4 workers, on a trace with TCP flows and retransmissions.
func TestStreamWindowSeriesShardIndependent(t *testing.T) {
	blob, reg, origin := genWeek(t, cloudmodel.VantageNZ, 5000, 41)
	path := writeCapture(t, withRetransmits(t, blob))

	var want []Window
	for _, workers := range []int{1, 2, 4} {
		agg, res, err := RunStream(context.Background(), path, streamOpts(StreamOptions{
			Options: Options{Workers: workers, Registry: reg, AnalyzerOpts: []entrada.Option{entrada.WithZoneOrigin(origin)}},
			Window:  20 * time.Minute,
		}))
		if err != nil {
			t.Fatal(err)
		}
		if agg.TCPResponses == 0 || res.Stats.UnmatchedResponses == 0 {
			t.Fatalf("trace exercises neither TCP (%d responses) nor retransmissions (%d unmatched)", agg.TCPResponses, res.Stats.UnmatchedResponses)
		}
		if want == nil {
			want = res.Windows
			if len(want) < 100 {
				t.Fatalf("want a long series, got %d windows", len(want))
			}
			continue
		}
		if len(res.Windows) != len(want) {
			t.Fatalf("workers=%d: %d windows, workers=1 had %d", workers, len(res.Windows), len(want))
		}
		for i, w := range res.Windows {
			if w.Index != want[i].Index || w.Queries != want[i].Queries || !reflect.DeepEqual(w.Providers, want[i].Providers) {
				t.Fatalf("workers=%d: window %d = {%d %d %v}, workers=1 had {%d %d %v}", workers, i,
					w.Index, w.Queries, w.Providers, want[i].Index, want[i].Queries, want[i].Providers)
			}
		}
	}
}

// TestStreamWindowSums is the windowed-merge property: window deltas are
// snapshots of one monotone series, so the sum of all window query
// counts — globally and per provider — must equal the one-shot totals.
func TestStreamWindowSums(t *testing.T) {
	blob, reg, origin := genWeek(t, cloudmodel.VantageNZ, 5000, 23)
	anOpts := []entrada.Option{entrada.WithZoneOrigin(origin)}
	path := writeCapture(t, blob)

	agg, res, err := RunStream(context.Background(), path, streamOpts(StreamOptions{
		Options: Options{Workers: 2, Registry: reg, AnalyzerOpts: anOpts},
		Window:  30 * time.Minute,
	}))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Windows) < 3 {
		t.Fatalf("want several windows over a week, got %d", len(res.Windows))
	}
	checkWindowSums(t, agg, res.Windows)
}

// checkWindowSums requires strictly increasing indices, provider counts
// that add up to each window's queries, and window sums that cover the
// aggregates except for what Finish itself finalized after the last cut.
func checkWindowSums(t *testing.T, agg *entrada.Aggregates, windows []Window) {
	t.Helper()
	var sum uint64
	perProv := make(map[string]uint64)
	lastIdx := int64(-1 << 62)
	for _, w := range windows {
		sum += w.Queries
		for p, n := range w.Providers {
			perProv[p] += n
		}
		if w.Index <= lastIdx {
			t.Fatalf("window indices not strictly increasing: %d after %d", w.Index, lastIdx)
		}
		lastIdx = w.Index
		var provSum uint64
		for _, n := range w.Providers {
			provSum += n
		}
		if provSum != w.Queries {
			t.Fatalf("window %d: provider sum %d != queries %d", w.Index, provSum, w.Queries)
		}
	}
	// Finish() flushes pending queries AFTER the last window closed, so
	// the windows cover everything finalized before shutdown.
	if sum > agg.Total {
		t.Fatalf("window sum %d exceeds total %d", sum, agg.Total)
	}
	for p, pa := range agg.ByProvider {
		if perProv[p.String()] > pa.Queries {
			t.Fatalf("provider %s window sum %d exceeds aggregate %d", p, perProv[p.String()], pa.Queries)
		}
	}
	// The final partial window is emitted at shutdown, so only queries
	// finalized by Finish itself (pending flushes) may be uncovered.
	if pendingFlushed := agg.Total - sum; pendingFlushed > agg.Total/2 {
		t.Fatalf("windows cover too little: %d of %d finalized outside windows", pendingFlushed, agg.Total)
	}
}

// TestStreamMarkerStorm: with millisecond windows nearly every packet
// crosses a boundary, so markers outnumber batches; with one-packet batches
// in one-deep queues every send blocks on a worker. Checkpoints are due at
// every marker and mostly supersede one another. Nothing may deadlock, race
// (CI runs this package under -race) or change the result, for any number
// of shards.
func TestStreamMarkerStorm(t *testing.T) {
	blob, reg, origin := genWeek(t, cloudmodel.VantageNL, 1200, 77)
	anOpts := []entrada.Option{entrada.WithZoneOrigin(origin)}
	blob = withRetransmits(t, blob)
	path := writeCapture(t, blob)

	refAgg, _ := reference(t, reg, anOpts, blob)
	want := reportBytes(t, refAgg, reg)
	for _, workers := range []int{1, 2, 4} {
		tm := telemetry.New()
		ckDir := filepath.Join(t.TempDir(), "state")
		agg, res, err := RunStream(context.Background(), path, streamOpts(StreamOptions{
			Options: Options{
				Workers: workers, QueueDepth: 1, BatchSize: 1,
				Registry: reg, AnalyzerOpts: anOpts, Telemetry: tm,
			},
			Window:          time.Millisecond,
			CheckpointDir:   ckDir,
			CheckpointEvery: 1,
		}))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(reportBytes(t, agg, reg), want) {
			t.Fatalf("workers=%d: report under a marker storm differs from the reference", workers)
		}
		if uint64(len(res.Windows)) != res.WindowsClosed || res.WindowsClosed < res.Stats.PacketsRead/2 {
			t.Fatalf("workers=%d: %d windows for %d packets (WindowsClosed %d)", workers, len(res.Windows), res.Stats.PacketsRead, res.WindowsClosed)
		}
		checkWindowSums(t, agg, res.Windows)

		// The checkpoint on disk is the shutdown one, and every cut before
		// it asked for one too: each was written or superseded.
		ck, ok, err := loadCheckpoint(ckDir)
		if err != nil || !ok {
			t.Fatalf("workers=%d: loading the shutdown checkpoint: ok=%v err=%v", workers, ok, err)
		}
		if ck.Offset != int64(len(blob)) || len(ck.Shards) != workers {
			t.Fatalf("shutdown checkpoint at offset %d with %d shards, want %d and %d", ck.Offset, len(ck.Shards), len(blob), workers)
		}
		written := tm.Histogram(MetricCheckpointSeconds).Count()
		superseded := tm.Counter(MetricCheckpointsSuperseded).Value()
		if written == 0 || written+superseded != ck.WindowsClosed+1 {
			t.Fatalf("workers=%d: %d checkpoints written + %d superseded, want %d boundary ones + 1", workers, written, superseded, ck.WindowsClosed)
		}
		if got := tm.Gauge(MetricCheckpointBytes).Value(); got <= 0 {
			t.Fatalf("workers=%d: %s = %d", workers, MetricCheckpointBytes, got)
		}
	}
}

// TestStreamKillResumeExact is the tentpole acceptance criterion at unit
// level: cancel a checkpointing stream partway (the in-process stand-in
// for kill -9 — the checkpoint on disk is all a restart would have),
// resume from the checkpoint directory while asking for a different worker
// count, and require the resumed run to keep the checkpoint's shards and
// its final report to be byte-identical to one bare analyzer over the
// whole capture. Runs with one, two and four shards.
func TestStreamKillResumeExact(t *testing.T) {
	blob, reg, origin := genWeek(t, cloudmodel.VantageNL, 4000, 99)
	anOpts := []entrada.Option{entrada.WithZoneOrigin(origin)}
	path := writeCapture(t, blob)

	refAgg, _ := reference(t, reg, anOpts, blob)
	want := reportBytes(t, refAgg, reg)

	for _, workers := range []int{1, 2, 4} {
		ckDir := filepath.Join(t.TempDir(), "state")

		// Phase 1: cancel hard once a boundary checkpoint past the third
		// window is on disk. To simulate SIGKILL — which would leave only
		// that BOUNDARY checkpoint, never a graceful shutdown one —
		// snapshot the file at the moment of the "kill" and restore it
		// afterwards, discarding anything the cancelled run wrote while
		// winding down. Checkpoints are written in the background, so
		// which boundary the snapshot is from is up to the disk; that it
		// is one is what matters.
		ctx, cancel := context.WithCancel(context.Background())
		ckPath := filepath.Join(ckDir, "entrada.ckpt")
		var killCk []byte
		windows := 0
		_, res1, err := RunStream(ctx, path, streamOpts(StreamOptions{
			Options:         Options{Workers: workers, Registry: reg, AnalyzerOpts: anOpts},
			Window:          30 * time.Minute,
			CheckpointDir:   ckDir,
			CheckpointEvery: 1,
			OnWindow: func(Window) {
				windows++
				if windows < 3 || killCk != nil {
					return
				}
				if b, rdErr := os.ReadFile(ckPath); rdErr == nil {
					killCk = b
					cancel()
				}
			},
		}))
		cancel()
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("workers=%d: phase 1: err = %v, want context.Canceled", workers, err)
		}
		if len(killCk) == 0 {
			t.Fatalf("workers=%d: no checkpoint captured at kill point", workers)
		}
		killed, err := decodeCheckpoint(killCk)
		if err != nil {
			t.Fatal(err)
		}
		if len(killed.Shards) != workers || killed.Offset <= 0 || killed.Offset >= int64(len(blob)) || killed.WindowsClosed == 0 {
			t.Fatalf("workers=%d: kill-point checkpoint: %d shards, offset %d of %d, %d windows closed", workers, len(killed.Shards), killed.Offset, len(blob), killed.WindowsClosed)
		}
		if err := os.WriteFile(ckPath, killCk, 0o644); err != nil {
			t.Fatal(err)
		}

		// Phase 2: resume. Must pick up at the recorded offset, under the
		// checkpoint's sharding, and finish with the reference report.
		agg2, res2, err := RunStream(context.Background(), path, streamOpts(StreamOptions{
			Options:       Options{Workers: 3, Registry: reg, AnalyzerOpts: anOpts},
			Window:        30 * time.Minute,
			CheckpointDir: ckDir,
			Resume:        true,
		}))
		if err != nil {
			t.Fatal(err)
		}
		if !res2.Resumed {
			t.Fatalf("workers=%d: phase 2 did not resume from checkpoint", workers)
		}
		if res2.Stats.Workers != workers {
			t.Fatalf("phase 2 ran %d workers, want the checkpoint's %d", res2.Stats.Workers, workers)
		}
		if !bytes.Equal(reportBytes(t, agg2, reg), want) {
			t.Fatalf("workers=%d: resumed report differs from the reference", workers)
		}
		if res2.WindowsClosed <= killed.WindowsClosed || res2.WindowsClosed < res1.WindowsClosed {
			t.Fatalf("workers=%d: resumed windows %d did not continue from %d (phase 1 reached %d)", workers, res2.WindowsClosed, killed.WindowsClosed, res1.WindowsClosed)
		}
	}
}

// TestStreamResumeFreshStart: Resume with an empty checkpoint dir is a
// documented fresh start, not an error.
func TestStreamResumeFreshStart(t *testing.T) {
	blob, reg, origin := genWeek(t, cloudmodel.VantageNL, 1000, 3)
	dir := t.TempDir()
	path := filepath.Join(dir, "cap.pcap")
	if err := os.WriteFile(path, blob, 0o644); err != nil {
		t.Fatal(err)
	}
	agg, res, err := RunStream(context.Background(), path, streamOpts(StreamOptions{
		Options:       Options{Registry: reg, AnalyzerOpts: []entrada.Option{entrada.WithZoneOrigin(origin)}},
		Window:        time.Hour,
		CheckpointDir: filepath.Join(dir, "state"),
		Resume:        true,
	}))
	if err != nil {
		t.Fatal(err)
	}
	if res.Resumed {
		t.Fatal("claimed to resume with no checkpoint present")
	}
	if agg.Total == 0 {
		t.Fatal("fresh start ingested nothing")
	}
}

// TestStreamWindowTelemetry: closed windows must move the
// entrada_window_* families on the registry.
func TestStreamWindowTelemetry(t *testing.T) {
	blob, reg, origin := genWeek(t, cloudmodel.VantageNL, 2000, 7)
	path := filepath.Join(t.TempDir(), "cap.pcap")
	if err := os.WriteFile(path, blob, 0o644); err != nil {
		t.Fatal(err)
	}
	tm := telemetry.New()
	_, res, err := RunStream(context.Background(), path, streamOpts(StreamOptions{
		Options: Options{Registry: reg, AnalyzerOpts: []entrada.Option{entrada.WithZoneOrigin(origin)}, Telemetry: tm},
		Window:  time.Hour,
	}))
	if err != nil {
		t.Fatal(err)
	}
	if got := tm.Counter(MetricWindowsClosed).Value(); got != res.WindowsClosed {
		t.Fatalf("%s = %d, want %d", MetricWindowsClosed, got, res.WindowsClosed)
	}
	last := res.Windows[len(res.Windows)-1]
	if got := tm.Gauge(MetricWindowQueries).Value(); got != int64(last.Queries) {
		t.Fatalf("%s = %d, want %d", MetricWindowQueries, got, last.Queries)
	}
	if got := tm.FloatGauge(MetricWindowHHI).Value(); got != last.HHI {
		t.Fatalf("%s = %v, want %v", MetricWindowHHI, got, last.HHI)
	}
	// The shutdown cut comes after the whole finished file was read.
	if got := tm.Gauge(MetricFollowBytesBehind).Value(); got != 0 {
		t.Fatalf("%s = %d, want 0", MetricFollowBytesBehind, got)
	}
	var sb bytes.Buffer
	if err := tm.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	// Follow mode publishes what the engine publishes for a batch run too.
	if got := tm.Counter(MetricPackets).Value(); got != res.Stats.PacketsRead {
		t.Fatalf("%s = %d, want %d", MetricPackets, got, res.Stats.PacketsRead)
	}
	for _, want := range []string{
		MetricWindowsClosed, MetricWindowQPS, MetricWindowTopShare, MetricWindowProviderShare + "{provider=",
		shardLabel(metricShardPackets, 1), shardLabel(MetricQueueDepth, 1),
		MetricFollowWakeups + `{cause="event"}`, MetricFollowWakeups + `{cause="poll"}`, MetricFollowBytesBehind,
	} {
		if !bytes.Contains(sb.Bytes(), []byte(want)) {
			t.Fatalf("exposition missing %q:\n%s", want, sb.String())
		}
	}
}

// TestBatchTruncatedTailTolerated: a torn final record in one input of a
// batch Run must not abort the run — its complete prefix is kept and the
// tear is counted per file, with one shard and with several.
func TestBatchTruncatedTailTolerated(t *testing.T) {
	blob, reg, origin := genWeek(t, cloudmodel.VantageNL, 2000, 11)
	anOpts := []entrada.Option{entrada.WithZoneOrigin(origin)}
	torn := blob[:len(blob)-7] // tear the last record's body

	for _, workers := range []int{1, 4} {
		agg, st, err := Run(context.Background(), openAll(t, torn, blob), Options{
			Workers: workers, Registry: reg, AnalyzerOpts: anOpts,
		})
		if err != nil {
			t.Fatalf("workers=%d: torn tail aborted the run: %v", workers, err)
		}
		if agg == nil || agg.Total == 0 {
			t.Fatalf("workers=%d: no aggregates from torn run", workers)
		}
		if st.TruncatedTails != 1 {
			t.Fatalf("workers=%d: TruncatedTails = %d, want 1", workers, st.TruncatedTails)
		}
		if st.PerFile[0].TruncatedTails != 1 || st.PerFile[1].TruncatedTails != 0 {
			t.Fatalf("workers=%d: per-file truncated tails = %+v", workers, st.PerFile)
		}
	}
}

// TestErrorPathStats: a mid-file decode failure must still surface the
// failing file's counts in Stats.PerFile, and the Progress callback must
// receive one final snapshot with PerFile populated, with one shard and
// with several.
func TestErrorPathStats(t *testing.T) {
	blob, reg, _ := genWeek(t, cloudmodel.VantageNL, 500, 13)

	// Corrupt one mid-file record header so its declared caplen exceeds
	// the snap length — a fatal decode error, not a torn tail.
	corrupt := append([]byte(nil), blob...)
	r, err := pcapio.NewReader(bytes.NewReader(blob))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.ReadPacket(); err != nil {
		t.Fatal(err)
	}
	if _, err := r.ReadPacket(); err != nil {
		t.Fatal(err)
	}
	off := r.Offset() // third record's header starts here
	// caplen field is bytes 8..12 of the record header (little-endian).
	corrupt[off+8], corrupt[off+9], corrupt[off+10], corrupt[off+11] = 0xFF, 0xFF, 0xFF, 0x7F

	for _, workers := range []int{1, 4} {
		var last Stats
		gotFinal := false
		_, st, err := Run(context.Background(), openAll(t, corrupt), Options{
			Workers: workers, Registry: reg,
			Progress:         func(s Stats) { last = s; gotFinal = len(s.PerFile) > 0 },
			ProgressInterval: time.Hour, // only the final snapshot fires
		})
		if err == nil {
			t.Fatalf("workers=%d: corrupt record did not error", workers)
		}
		if st.PerFile[0].Packets == 0 {
			t.Fatalf("workers=%d: failing file's packet count missing from PerFile", workers)
		}
		if !gotFinal {
			t.Fatalf("workers=%d: no final Progress snapshot with PerFile (last: %+v)", workers, last)
		}
		if last.PerFile[0].Packets != st.PerFile[0].Packets {
			t.Fatalf("workers=%d: final Progress snapshot stale: %+v vs %+v", workers, last.PerFile[0], st.PerFile[0])
		}
	}
}
