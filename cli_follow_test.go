package dnscentral_test

import (
	"bytes"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"
)

// slowAppend copies src into dst in small chunks with short pauses,
// simulating a capture process writing a live pcap. Chunk sizes are
// deliberately not record-aligned, so the tail of dst is torn most of
// the time — exactly what a follower snapshooting a live file sees.
// The returned channel closes when the whole file has been written.
func slowAppend(t *testing.T, dst, src string, chunk int, pause time.Duration) <-chan struct{} {
	t.Helper()
	blob, err := os.ReadFile(src)
	if err != nil {
		t.Fatal(err)
	}
	f, err := os.OpenFile(dst, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		defer f.Close()
		for off := 0; off < len(blob); off += chunk {
			end := off + chunk
			if end > len(blob) {
				end = len(blob)
			}
			if _, err := f.Write(blob[off:end]); err != nil {
				t.Errorf("appending live pcap: %v", err)
				return
			}
			time.Sleep(pause)
		}
	}()
	return done
}

// waitFor polls until cond returns true or the deadline passes.
func waitFor(t *testing.T, what string, d time.Duration, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(d)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// TestCLIFollowKillResume is the tentpole acceptance test end to end:
// dnstracegen writes a capture slowly while `entrada -follow -checkpoint
// -workers 2` ingests it; the follower is SIGKILLed mid-capture, restarted
// with -resume (and a different -workers, which the checkpoint's shard
// count must override) once the writer finished, and its final report must
// be byte-identical to a batch run over the completed capture. The window
// telemetry (entrada_window_*), the per-shard engine counters and the
// checkpoint writer's telemetry must be live on /metrics while following.
func TestCLIFollowKillResume(t *testing.T) {
	bins := buildTools(t, "dnstracegen", "entrada")
	dir := t.TempDir()
	full := filepath.Join(dir, "full.pcap")
	runTool(t, bins["dnstracegen"], "-vantage", "nl", "-week", "w2020",
		"-queries", "6000", "-scale", "0.002", "-seed", "9", "-out", full)

	// Batch reference over the finished capture.
	batchJSON := filepath.Join(dir, "batch.json")
	runTool(t, bins["entrada"], "-workers", "1", "-in", full, "-out", batchJSON)
	want, err := os.ReadFile(batchJSON)
	if err != nil {
		t.Fatal(err)
	}

	// The capture process: ~64 KiB every 10 ms, never record-aligned.
	live := filepath.Join(dir, "live.pcap")
	ckDir := filepath.Join(dir, "state")
	writerDone := slowAppend(t, live, full, 64<<10, 10*time.Millisecond)

	// Follower #1: no idle-exit (a service follows forever), window width
	// in capture time sized so a synthetic week closes a few dozen
	// windows and checkpoints several times while the file grows.
	follow1 := exec.Command(bins["entrada"], "-follow", "-workers", "2", "-in", live,
		"-window", "6h", "-checkpoint", ckDir,
		"-metrics-addr", "127.0.0.1:0", "-out", filepath.Join(dir, "ignored.json"))
	out1 := &syncBuilder{}
	follow1.Stdout, follow1.Stderr = out1, out1
	if err := follow1.Start(); err != nil {
		t.Fatal(err)
	}
	defer func() {
		_ = follow1.Process.Kill()
		_, _ = follow1.Process.Wait()
	}()

	// The window series must move on /metrics while following.
	maddr := waitMetricsAddr(t, out1)
	waitFor(t, "entrada_window_* metrics to move", 15*time.Second, func() bool {
		resp := httpGet(t, "http://"+maddr+"/metrics")
		return metricPositive(resp, "entrada_windows_closed_total") &&
			metricPositive(resp, "entrada_window_queries") &&
			strings.Contains(resp, "entrada_window_hhi") &&
			strings.Contains(resp, `entrada_window_provider_share{provider=`) &&
			metricPositive(resp, `pipeline_shard_packets_total{shard="1"}`) &&
			strings.Contains(resp, `pipeline_queue_depth{shard="1"}`)
	})
	waitFor(t, "a checkpoint on disk", 15*time.Second, func() bool {
		_, err := os.Stat(filepath.Join(ckDir, "entrada.ckpt"))
		return err == nil
	})
	waitFor(t, "the checkpoint writer's telemetry", 15*time.Second, func() bool {
		resp := httpGet(t, "http://"+maddr+"/metrics")
		return metricPositive(resp, "entrada_checkpoint_seconds_count") &&
			metricPositive(resp, "entrada_checkpoint_bytes") &&
			strings.Contains(resp, "entrada_checkpoints_superseded_total")
	})

	// kill -9: no shutdown handler runs, only the checkpoint survives.
	if err := follow1.Process.Kill(); err != nil {
		t.Fatal(err)
	}
	_, _ = follow1.Process.Wait()
	// What a SIGKILL between CreateTemp and Rename leaves behind; the next
	// run has to clear it away.
	staleTemp := filepath.Join(ckDir, "entrada.ckpt.tmp4242")
	if err := os.WriteFile(staleTemp, []byte(`{"version":`), 0o600); err != nil {
		t.Fatal(err)
	}

	<-writerDone

	// Follower #2 resumes from the checkpoint, drains the now-complete
	// capture and idle-exits.
	followJSON := filepath.Join(dir, "follow.json")
	out2 := runTool(t, bins["entrada"], "-follow", "-workers", "3", "-in", live,
		"-window", "6h", "-checkpoint", ckDir, "-resume",
		"-idle-exit", "1s", "-out", followJSON)
	if !strings.Contains(out2, "resumed from checkpoint") || !strings.Contains(out2, ", 2 shards)") {
		t.Fatalf("follower #2 did not resume under the checkpoint's 2 shards:\n%s", out2)
	}
	if _, err := os.Stat(staleTemp); !os.IsNotExist(err) {
		t.Fatalf("stale checkpoint temp file survived the restart (stat err = %v)", err)
	}
	if !strings.Contains(out2, "Window series") {
		t.Fatalf("follower #2 printed no window series:\n%s", out2)
	}

	got, err := os.ReadFile(followJSON)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("kill -9 + -resume report differs from batch report\nbatch:  %d bytes\nfollow: %d bytes", len(want), len(got))
	}
}

// TestCLIFollowSigtermFlush checks graceful shutdown: SIGTERM must flush
// the final partial window, print the window series and write the full
// report, exiting zero.
func TestCLIFollowSigtermFlush(t *testing.T) {
	bins := buildTools(t, "dnstracegen", "entrada")
	dir := t.TempDir()
	pcap := filepath.Join(dir, "trace.pcap")
	runTool(t, bins["dnstracegen"], "-vantage", "nz", "-week", "w2019",
		"-queries", "3000", "-scale", "0.002", "-seed", "4", "-out", pcap)

	report := filepath.Join(dir, "follow.json")
	cmd := exec.Command(bins["entrada"], "-follow", "-in", pcap,
		"-window", "12h", "-out", report)
	out := &syncBuilder{}
	cmd.Stdout, cmd.Stderr = out, out
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	defer func() {
		_ = cmd.Process.Kill()
		_, _ = cmd.Process.Wait()
	}()

	// Wait until the follower has closed at least one window, then ask
	// it to stop. The capture is complete, so by then it has typically
	// drained the whole file and is idling on the tail.
	waitFor(t, "a closed window line", 15*time.Second, func() bool {
		return strings.Contains(out.String(), "entrada: window ")
	})
	if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	if err := cmd.Wait(); err != nil {
		t.Fatalf("entrada -follow did not exit cleanly on SIGTERM: %v\n%s", err, out.String())
	}
	s := out.String()
	if !strings.Contains(s, "Window series") {
		t.Fatalf("no window series on shutdown:\n%s", s)
	}
	if fi, err := os.Stat(report); err != nil || fi.Size() == 0 {
		t.Fatalf("no report written on SIGTERM: %v", err)
	}
}
