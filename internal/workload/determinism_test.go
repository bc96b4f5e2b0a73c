package workload

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"reflect"
	"testing"
	"time"

	"dnscentral/internal/cloudmodel"
	"dnscentral/internal/pcapio"
)

func goldenConfig(workers int) Config {
	return Config{
		Vantage: cloudmodel.VantageNL, Week: cloudmodel.W2020,
		TotalQueries: 6000, Seed: 42, ResolverScale: 0.002,
		Workers: workers,
	}
}

// renderTrace generates one full pcap into memory.
func renderTrace(t testing.TB, cfg Config) ([]byte, *GroundTruth) {
	t.Helper()
	g, err := NewGenerator(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	w := pcapio.NewWriter(&buf, pcapio.WithNanosecondResolution())
	gt, err := g.Run(w)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes(), gt
}

// goldenTraceDigest pins the exact pcap bytes of goldenConfig: any change
// to the PRNG scheme, frame builders, packing, merge order, or pcap
// encoding shows up here. Regenerate deliberately (and note it in the
// change description) when the trace model itself changes.
const goldenTraceDigest = "6e8fc5ea11275f6b177a1d25bbca93ad02393f30268c63324fb164e50b40d4ff"

func TestSeedStabilityGolden(t *testing.T) {
	data, _ := renderTrace(t, goldenConfig(1))
	sum := sha256.Sum256(data)
	if got := hex.EncodeToString(sum[:]); got != goldenTraceDigest {
		t.Fatalf("golden trace digest = %s, want %s (seed stability broken — only repin if the trace model intentionally changed)",
			got, goldenTraceDigest)
	}
}

// TestWorkerCountParity is the tentpole invariant: the trace and the
// ground truth are byte-for-byte identical however many shards generate
// them.
func TestWorkerCountParity(t *testing.T) {
	base, gtBase := renderTrace(t, goldenConfig(1))
	for _, workers := range []int{2, 4, 7} {
		data, gt := renderTrace(t, goldenConfig(workers))
		if !bytes.Equal(base, data) {
			t.Fatalf("workers=%d trace differs from workers=1 (%d vs %d bytes)", workers, len(data), len(base))
		}
		if !reflect.DeepEqual(gtBase, gt) {
			t.Errorf("workers=%d ground truth differs from workers=1", workers)
		}
	}
}

// TestWorkerCountParityAnomaly covers the anomaly-injection path (and a
// second vantage) under sharding.
func TestWorkerCountParityAnomaly(t *testing.T) {
	cfg := Config{
		Vantage: cloudmodel.VantageNZ, Week: cloudmodel.W2020,
		TotalQueries: 3000, Seed: 7, ResolverScale: 0.002,
		Anomaly: true,
	}
	cfg.Workers = 1
	base, _ := renderTrace(t, cfg)
	cfg.Workers = 3
	data, _ := renderTrace(t, cfg)
	if !bytes.Equal(base, data) {
		t.Fatalf("anomaly trace differs between workers=1 and workers=3")
	}
}

// plainSink hides the BatchSink fast path so the merger falls back to
// per-packet WritePacket.
type plainSink struct{ w *pcapio.Writer }

func (s plainSink) WritePacket(ts time.Time, data []byte) error { return s.w.WritePacket(ts, data) }

// TestBatchSinkParity checks that the batched emit path produces the same
// file as the per-packet fallback.
func TestBatchSinkParity(t *testing.T) {
	cfg := goldenConfig(2)
	cfg.TotalQueries = 2000

	g, err := NewGenerator(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var batched bytes.Buffer
	bw := pcapio.NewWriter(&batched, pcapio.WithNanosecondResolution())
	if _, err := g.Run(bw); err != nil {
		t.Fatal(err)
	}
	if err := bw.Flush(); err != nil {
		t.Fatal(err)
	}

	g, err = NewGenerator(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var plain bytes.Buffer
	pw := pcapio.NewWriter(&plain, pcapio.WithNanosecondResolution())
	if _, err := g.Run(plainSink{pw}); err != nil {
		t.Fatal(err)
	}
	if err := pw.Flush(); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(batched.Bytes(), plain.Bytes()) {
		t.Fatal("batched pcap differs from per-packet pcap")
	}
}

// TestMergedTimestampsMonotone checks the k-way merge's contract: the
// capture is globally ordered by timestamp.
func TestMergedTimestampsMonotone(t *testing.T) {
	data, _ := renderTrace(t, goldenConfig(4))
	r, err := pcapio.NewReader(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	var prev time.Time
	n := 0
	if err := pcapio.ForEachPacket(r, func(p pcapio.Packet) error {
		if p.Timestamp.Before(prev) {
			t.Fatalf("packet %d at %v precedes previous %v", n, p.Timestamp, prev)
		}
		prev = p.Timestamp
		n++
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if n == 0 {
		t.Fatal("empty capture")
	}
}
