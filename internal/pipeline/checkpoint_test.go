package pipeline

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"dnscentral/internal/astrie"
	"dnscentral/internal/cloudmodel"
	"dnscentral/internal/entrada"
	"dnscentral/internal/telemetry"
)

// realCheckpoint runs a two-shard stream over a small generated capture
// and returns the shutdown checkpoint it left on disk.
func realCheckpoint(t testing.TB) ([]byte, *astrie.Registry) {
	t.Helper()
	blob, reg, origin := genWeek(t, cloudmodel.VantageNL, 600, 17)
	ckDir := filepath.Join(t.TempDir(), "state")
	_, _, err := RunStream(context.Background(), writeCapture(t, blob), streamOpts(StreamOptions{
		Options:       Options{Workers: 2, Registry: reg, AnalyzerOpts: []entrada.Option{entrada.WithZoneOrigin(origin)}},
		Window:        time.Hour,
		CheckpointDir: ckDir,
	}))
	if err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(filepath.Join(ckDir, checkpointName))
	if err != nil {
		t.Fatal(err)
	}
	return data, reg
}

// TestCheckpointEnvelope: writeTo splices the shard states in unparsed, so
// pin that what it writes is the JSON encoding/json would have written.
func TestCheckpointEnvelope(t *testing.T) {
	data, reg := realCheckpoint(t)
	ck, err := decodeCheckpoint(data)
	if err != nil {
		t.Fatal(err)
	}
	if ck.Version != streamCheckpointVersion || len(ck.Shards) != 2 || ck.Offset <= 0 || ck.WindowNanos != int64(time.Hour) {
		t.Fatalf("decoded envelope: %+v", ck.checkpointHeader)
	}
	if _, err := ck.restoreShards(reg); err != nil {
		t.Fatal(err)
	}
	var spliced bytes.Buffer
	if n, err := ck.writeTo(&spliced); err != nil || n != spliced.Len() {
		t.Fatalf("writeTo = %d, %v; wrote %d bytes", n, err, spliced.Len())
	}
	if !bytes.Equal(spliced.Bytes(), data) {
		t.Fatal("re-encoding a decoded checkpoint changed its bytes")
	}
	var viaStd, viaSplice any
	std, err := json.Marshal(ck)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(std, &viaStd); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(data, &viaSplice); err != nil {
		t.Fatal(err)
	}
	if a, b := mustJSON(t, viaStd), mustJSON(t, viaSplice); !bytes.Equal(a, b) {
		t.Fatal("spliced envelope and json.Marshal envelope decode to different values")
	}
}

func mustJSON(t *testing.T, v any) []byte {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestCheckpointRejects: what the loader refuses, it refuses by name.
func TestCheckpointRejects(t *testing.T) {
	data, _ := realCheckpoint(t)
	var fields map[string]json.RawMessage
	if err := json.Unmarshal(data, &fields); err != nil {
		t.Fatal(err)
	}
	with := func(key, value string) []byte {
		out := make(map[string]json.RawMessage, len(fields))
		for k, v := range fields {
			out[k] = v
		}
		out[key] = json.RawMessage(value)
		return mustJSON(t, out)
	}
	manyShards := "[" + strings.Repeat("{},", maxCheckpointShards) + "{}]"
	for _, tc := range []struct {
		name string
		data []byte
		want string
	}{
		{"the single-analyzer envelope", with("version", "1"), "checkpoint version 1, want 2"},
		{"a future envelope", with("version", "3"), "checkpoint version 3, want 2"},
		{"no shards", with("shards", "[]"), "checkpoint has 0 shards"},
		{"no shard list", with("shards", "null"), "checkpoint has 0 shards"},
		{"too many shards", with("shards", manyShards), "checkpoint has 1025 shards"},
		{"negative offset", with("offset", "-5"), "offset -5"},
		{"not JSON", data[:len(data)/2], "decoding checkpoint"},
	} {
		if _, err := decodeCheckpoint(tc.data); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err = %v, want it to mention %q", tc.name, err, tc.want)
		}
	}
	// A shard whose analyzer state is of another version names the shard.
	ck, err := decodeCheckpoint(with("shards", `[{"version":1},{"version":99}]`))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ck.restoreShards(astrie.NewRegistry(10)); err == nil || !strings.Contains(err.Error(), "shard 1 of 2") {
		t.Errorf("restoring a bad shard: err = %v, want it to name shard 1 of 2", err)
	}
}

// TestCheckpointTempSweep: a writer killed between CreateTemp and Rename
// leaves its temp file behind; the next run must remove it, and must leave
// the checkpoint itself and unrelated files alone.
func TestCheckpointTempSweep(t *testing.T) {
	blob, reg, _ := genWeek(t, cloudmodel.VantageNL, 300, 3)
	ckDir := filepath.Join(t.TempDir(), "state")
	if err := os.MkdirAll(ckDir, 0o755); err != nil {
		t.Fatal(err)
	}
	stale := []string{checkpointName + ".tmp123456", checkpointName + ".tmp9"}
	keep := []string{"notes.txt"}
	for _, name := range append(stale, keep...) {
		if err := os.WriteFile(filepath.Join(ckDir, name), []byte("{"), 0o600); err != nil {
			t.Fatal(err)
		}
	}
	_, _, err := RunStream(context.Background(), writeCapture(t, blob), streamOpts(StreamOptions{
		Options:       Options{Workers: 2, Registry: reg},
		Window:        time.Hour,
		CheckpointDir: ckDir,
	}))
	if err != nil {
		t.Fatal(err)
	}
	entries, err := os.ReadDir(ckDir)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, e := range entries {
		names = append(names, e.Name())
	}
	if got, want := strings.Join(names, " "), checkpointName+" notes.txt"; got != want {
		t.Fatalf("checkpoint dir holds %q, want %q", got, want)
	}
}

// TestCheckpointWriteErrorFailsRun: the writer runs in the background, but
// a checkpoint it cannot write must still fail the run, as it did when the
// write was synchronous. A non-empty directory squatting on the checkpoint
// path makes every rename fail.
func TestCheckpointWriteErrorFailsRun(t *testing.T) {
	blob, reg, _ := genWeek(t, cloudmodel.VantageNL, 1000, 8)
	ckDir := filepath.Join(t.TempDir(), "state")
	if err := os.MkdirAll(filepath.Join(ckDir, checkpointName, "squatter"), 0o755); err != nil {
		t.Fatal(err)
	}
	_, res, err := RunStream(context.Background(), writeCapture(t, blob), streamOpts(StreamOptions{
		Options:         Options{Workers: 2, Registry: reg},
		Window:          time.Hour,
		CheckpointDir:   ckDir,
		CheckpointEvery: 1,
	}))
	if err == nil || !strings.Contains(err.Error(), "publishing checkpoint") {
		t.Fatalf("err = %v, want the rename failure", err)
	}
	if len(res.Windows) == 0 {
		t.Fatal("the failed run reported no windows at all")
	}
	if left, _ := filepath.Glob(filepath.Join(ckDir, checkpointTempPattern)); len(left) != 0 {
		t.Fatalf("failed writes left temp files behind: %v", left)
	}
}

// TestCheckpointNewestWins: the writer's box holds one checkpoint; one
// submitted while it is full replaces it and is counted.
func TestCheckpointNewestWins(t *testing.T) {
	tm := telemetry.New()
	w := &checkpointWriter{
		box:          make(chan pendingCheckpoint, 1),
		tmSuperseded: tm.Counter(MetricCheckpointsSuperseded),
	}
	for offset := int64(1); offset <= 3; offset++ {
		w.submit(pendingCheckpoint{ck: streamCheckpoint{checkpointHeader: checkpointHeader{Offset: offset}}})
	}
	if got := (<-w.box).ck.Offset; got != 3 {
		t.Fatalf("box held the checkpoint at offset %d, want the newest (3)", got)
	}
	if got := tm.Counter(MetricCheckpointsSuperseded).Value(); got != 2 {
		t.Fatalf("%s = %d, want 2", MetricCheckpointsSuperseded, got)
	}
}

// FuzzLoadCheckpoint feeds arbitrary bytes, and mutations of a real
// two-shard checkpoint, through the checkpoint loader and the analyzer
// restore behind it. Neither may panic. What they may allocate is bounded
// by the input: decodeCheckpoint refuses more than maxCheckpointBytes or
// maxCheckpointShards before restoring anything, and a restored analyzer
// holds nothing the input did not spell out.
func FuzzLoadCheckpoint(f *testing.F) {
	real, reg := realCheckpoint(f)
	f.Add(real)
	f.Add(real[:len(real)/3])
	f.Add(bytes.Replace(real, []byte(`"version":2`), []byte(`"version":1`), 1))
	f.Add(bytes.Replace(real, []byte(`"shards":[`), []byte(`"shards":[{},`), 1))
	f.Add(bytes.ReplaceAll(real, []byte(`"version":1`), []byte(`"version":7`))) // the analyzer states' own version
	f.Add([]byte(`{"version":2,"offset":24,"window_nanos":1,"shards":[{"version":1,"pending":[{"client":"x"}]}]}`))
	f.Add([]byte(`{"version":2,"shards":[{"version":1,"conns":[{"client":"1.2.3.4:5","server":"[::1]:53","c2s":{"buf":"AAAA","pending":[{"seq":1,"data":"/w=="}]}}]}]}`))
	f.Add([]byte(`{}`))
	f.Add([]byte(`null`))
	f.Fuzz(func(t *testing.T, data []byte) {
		ck, err := decodeCheckpoint(data)
		if err != nil {
			if !strings.HasPrefix(err.Error(), "pipeline: ") {
				t.Fatalf("error does not say where it is from: %v", err)
			}
			return
		}
		if ck.Version != streamCheckpointVersion || len(ck.Shards) < 1 || len(ck.Shards) > maxCheckpointShards || ck.Offset < 0 {
			t.Fatalf("decodeCheckpoint accepted %+v with %d shards", ck.checkpointHeader, len(ck.Shards))
		}
		shards, err := ck.restoreShards(reg)
		if err != nil {
			return
		}
		// What restored must checkpoint again and finish like any analyzer.
		for _, an := range shards {
			if _, err := an.MarshalState(); err != nil {
				t.Fatalf("restored analyzer does not marshal: %v", err)
			}
			an.Finish()
		}
	})
}
