package pipeline

import (
	"bytes"
	"context"
	"sync"
	"testing"
	"time"

	"dnscentral/internal/astrie"
	"dnscentral/internal/cloudmodel"
	"dnscentral/internal/entrada"
	"dnscentral/internal/pcapio"
	"dnscentral/internal/workload"
)

// genWeek renders one synthetic capture into memory and returns the pcap
// bytes, the registry it was generated against, and the zone origin (for
// WithZoneOrigin, so parity tests cover the Q-min counters too).
func genWeek(t testing.TB, v cloudmodel.Vantage, queries int, seed int64) ([]byte, *astrie.Registry, string) {
	t.Helper()
	g, err := workload.NewGenerator(workload.Config{
		Vantage: v, Week: cloudmodel.W2020,
		TotalQueries: queries, Seed: seed, ResolverScale: 0.002,
	})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	w := pcapio.NewWriter(&buf)
	if _, err := g.Run(w); err != nil {
		t.Fatal(err)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes(), g.Registry(), g.Zone().Origin
}

func openAll(t testing.TB, blobs ...[]byte) []pcapio.PacketReader {
	t.Helper()
	readers := make([]pcapio.PacketReader, len(blobs))
	for i, blob := range blobs {
		r, err := pcapio.Open(bytes.NewReader(blob))
		if err != nil {
			t.Fatal(err)
		}
		readers[i] = r
	}
	return readers
}

func reportBytes(t testing.TB, ag *entrada.Aggregates, reg *astrie.Registry) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := entrada.BuildReport(ag, reg).WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// reference is the expected side of the pipeline's parity tests, built
// without the pipeline: one bare entrada.Analyzer per capture, drained
// with AnalyzeReader, the per-capture aggregates merged in order. It
// returns the merged aggregates and the analyzers' malformed total.
func reference(t testing.TB, reg *astrie.Registry, anOpts []entrada.Option, blobs ...[]byte) (*entrada.Aggregates, uint64) {
	t.Helper()
	var agg *entrada.Aggregates
	var malformed uint64
	for _, r := range openAll(t, blobs...) {
		an := entrada.NewAnalyzer(reg, anOpts...)
		if err := an.AnalyzeReader(r); err != nil {
			t.Fatal(err)
		}
		malformed += an.MalformedPackets
		if agg == nil {
			agg = an.Finish()
		} else {
			agg.Merge(an.Finish())
		}
	}
	return agg, malformed
}

// TestParallelMatchesSequential is the acceptance invariant: ingesting a
// generated week with any number of flow shards must produce exactly the
// report of one bare analyzer over the capture. Run under -race in CI.
func TestParallelMatchesSequential(t *testing.T) {
	blob, reg, origin := genWeek(t, cloudmodel.VantageNL, 6000, 21)
	anOpts := []entrada.Option{entrada.WithZoneOrigin(origin)}
	refAgg, refMalformed := reference(t, reg, anOpts, blob)
	want := reportBytes(t, refAgg, reg)

	var read uint64
	for _, workers := range []int{1, 2, 4} {
		agg, st, err := Run(context.Background(), openAll(t, blob), Options{Workers: workers, Registry: reg, AnalyzerOpts: anOpts})
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(reportBytes(t, agg, reg), want) {
			t.Fatalf("workers=%d: report differs from the single-analyzer reference", workers)
		}
		if read == 0 {
			read = st.PacketsRead
		}
		if st.PacketsRead != read || st.PacketsDispatched != st.PacketsRead {
			t.Errorf("workers=%d: read %d, dispatched %d; workers=1 read %d", workers, st.PacketsRead, st.PacketsDispatched, read)
		}
		if st.Malformed != refMalformed {
			t.Errorf("workers=%d: malformed %d, reference %d", workers, st.Malformed, refMalformed)
		}
		if st.Workers != workers {
			t.Errorf("stats workers = %d, want %d", st.Workers, workers)
		}
	}
}

// TestMultiFileMatchesSequential checks cross-file parallelism: three
// captures ingested concurrently under a shared worker budget must merge
// to the report of one bare analyzer per capture, merged. Seven workers
// spread unevenly over the three files.
func TestMultiFileMatchesSequential(t *testing.T) {
	a, reg, _ := genWeek(t, cloudmodel.VantageNZ, 3000, 1)
	// Same registry config across shards of one logical dataset: reuse reg
	// by regenerating with different seeds (the registry layout is
	// ordinal-stable, so one registry classifies all three).
	b, _, _ := genWeek(t, cloudmodel.VantageNZ, 3000, 2)
	c, _, _ := genWeek(t, cloudmodel.VantageNZ, 3000, 3)

	refAgg, _ := reference(t, reg, nil, a, b, c)
	want := reportBytes(t, refAgg, reg)
	for _, workers := range []int{1, 2, 4, 7} {
		parAgg, st, err := Run(context.Background(), openAll(t, a, b, c), Options{Workers: workers, Registry: reg})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if !bytes.Equal(reportBytes(t, parAgg, reg), want) {
			t.Fatalf("workers=%d: multi-file report differs from the per-file reference", workers)
		}
		if len(st.PerFile) != 3 {
			t.Fatalf("workers=%d: PerFile has %d entries, want 3", workers, len(st.PerFile))
		}
		var sum uint64
		for _, fs := range st.PerFile {
			if fs.Packets == 0 {
				t.Errorf("workers=%d: a file shows zero packets", workers)
			}
			sum += fs.Packets
		}
		if sum != st.PacketsRead {
			t.Errorf("workers=%d: per-file packets sum %d != read %d", workers, sum, st.PacketsRead)
		}
	}
}

// TestBackpressureTinyQueues forces constant queue-full conditions and
// checks nothing deadlocks or changes the result.
func TestBackpressureTinyQueues(t *testing.T) {
	blob, reg, _ := genWeek(t, cloudmodel.VantageNL, 2000, 5)
	refAgg, _ := reference(t, reg, nil, blob)
	want := reportBytes(t, refAgg, reg)
	for _, workers := range []int{1, 2, 3, 4} {
		got, _, err := Run(context.Background(), openAll(t, blob), Options{
			Workers: workers, Registry: reg,
			QueueDepth: 1, BatchSize: 4, BatchBytes: 256,
		})
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(reportBytes(t, got, reg), want) {
			t.Fatalf("workers=%d: tiny-queue run produced a different report", workers)
		}
	}
}

// TestAllMalformedPerFileStats feeds one valid capture and one capture of
// garbage frames; the garbage file must show packets == malformed.
func TestAllMalformedPerFileStats(t *testing.T) {
	valid, reg, _ := genWeek(t, cloudmodel.VantageNL, 1500, 8)

	var junk bytes.Buffer
	w := pcapio.NewWriter(&junk)
	for i := 0; i < 50; i++ {
		frame := bytes.Repeat([]byte{0xAB}, 60) // not Ethernet/IP at all
		if err := w.WritePacket(time.Unix(int64(i), 0), frame); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}

	for _, workers := range []int{1, 4} {
		_, st, err := Run(context.Background(), openAll(t, valid, junk.Bytes()), Options{Workers: workers, Registry: reg})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if st.PerFile[1].Packets != 50 || st.PerFile[1].Malformed != 50 {
			t.Errorf("workers=%d: junk file stats = %+v, want 50/50", workers, st.PerFile[1])
		}
		if st.PerFile[0].Malformed != 0 {
			t.Errorf("workers=%d: valid file reported %d malformed", workers, st.PerFile[0].Malformed)
		}
		if st.Malformed != 50 {
			t.Errorf("workers=%d: total malformed = %d, want 50", workers, st.Malformed)
		}
	}
}

// TestContextCancellation cancels mid-ingest; Run must return promptly
// with the context error instead of deadlocking on full queues.
func TestContextCancellation(t *testing.T) {
	blob, reg, _ := genWeek(t, cloudmodel.VantageNL, 4000, 13)
	ctx, cancel := context.WithCancel(context.Background())
	cancel() // already canceled: every flush must fail fast
	_, _, err := Run(ctx, openAll(t, blob), Options{
		Workers: 4, Registry: reg, QueueDepth: 1, BatchSize: 1,
	})
	if err != context.Canceled {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

// TestEngineAsStreamingSink drives the exported Engine the way core.Run
// does (generator → WritePacket → Close) and checks it matches a single
// analyzer fed the same packets.
func TestEngineAsStreamingSink(t *testing.T) {
	g, err := workload.NewGenerator(workload.Config{
		Vantage: cloudmodel.VantageNZ, Week: cloudmodel.W2020,
		TotalQueries: 4000, Seed: 31, ResolverScale: 0.002,
	})
	if err != nil {
		t.Fatal(err)
	}
	eng, err := NewEngine(context.Background(), Options{Workers: 4, Registry: g.Registry()})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := g.Run(eng); err != nil {
		t.Fatal(err)
	}
	got, err := eng.Close()
	if err != nil {
		t.Fatal(err)
	}

	// Reference: same generator config through a single analyzer.
	g2, err := workload.NewGenerator(workload.Config{
		Vantage: cloudmodel.VantageNZ, Week: cloudmodel.W2020,
		TotalQueries: 4000, Seed: 31, ResolverScale: 0.002,
	})
	if err != nil {
		t.Fatal(err)
	}
	an := entrada.NewAnalyzer(g2.Registry())
	if _, err := g2.Run(sinkFunc(func(ts time.Time, data []byte) error {
		an.HandlePacket(ts, data)
		return nil
	})); err != nil {
		t.Fatal(err)
	}
	want := an.Finish()

	if !bytes.Equal(reportBytes(t, got, g.Registry()), reportBytes(t, want, g2.Registry())) {
		t.Fatal("streaming engine report differs from the single analyzer")
	}
	if eng.cnt.snapshot(len(eng.shards), 0).PacketsRead == 0 {
		t.Error("snapshot shows zero packets read")
	}
}

type sinkFunc func(time.Time, []byte) error

func (f sinkFunc) WritePacket(ts time.Time, data []byte) error { return f(ts, data) }

// TestProgressCallback checks snapshots arrive while ingestion runs.
func TestProgressCallback(t *testing.T) {
	blob, reg, _ := genWeek(t, cloudmodel.VantageNL, 4000, 17)
	var mu sync.Mutex
	var snaps []Stats
	_, _, err := Run(context.Background(), openAll(t, blob), Options{
		Workers: 2, Registry: reg,
		Progress:         func(s Stats) { mu.Lock(); snaps = append(snaps, s); mu.Unlock() },
		ProgressInterval: time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(snaps) == 0 {
		t.Skip("ingest finished before the first progress tick") // timing-dependent on very fast machines
	}
	last := snaps[len(snaps)-1]
	if last.Workers != 2 || last.Files != 1 {
		t.Errorf("snapshot workers/files = %d/%d, want 2/1", last.Workers, last.Files)
	}
	if len(last.QueueDepths) != 2 {
		t.Errorf("snapshot has %d queue depth slots, want 2", len(last.QueueDepths))
	}
}

// TestWriteAfterCloseFails pins the Engine lifecycle contract.
func TestWriteAfterCloseFails(t *testing.T) {
	reg := astrie.NewRegistry(1)
	eng, err := NewEngine(context.Background(), Options{Workers: 2, Registry: reg})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Close(); err != nil {
		t.Fatal(err)
	}
	if err := eng.WritePacket(time.Unix(0, 0), []byte{1, 2, 3}); err != ErrClosed {
		t.Fatalf("write after close: err = %v, want ErrClosed", err)
	}
	if _, err := eng.Close(); err != ErrClosed {
		t.Fatalf("double close: err = %v, want ErrClosed", err)
	}
}

// TestOptionsValidation pins the required-field errors.
func TestOptionsValidation(t *testing.T) {
	if _, _, err := Run(context.Background(), nil, Options{Registry: astrie.NewRegistry(1)}); err == nil {
		t.Error("Run with no inputs did not fail")
	}
	blob, _, _ := genWeek(t, cloudmodel.VantageNL, 100, 3)
	if _, _, err := Run(context.Background(), openAll(t, blob), Options{}); err == nil {
		t.Error("Run without a registry did not fail")
	}
	if _, err := NewEngine(context.Background(), Options{}); err == nil {
		t.Error("NewEngine without a registry did not fail")
	}
}
