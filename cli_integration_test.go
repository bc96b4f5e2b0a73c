package dnscentral_test

import (
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"dnscentral/internal/pcapio"
)

// toolsDir holds the cmd/ binaries that buildTools compiles; TestMain makes
// it and removes it after the run.
var toolsDir string

func TestMain(m *testing.M) {
	dir, err := os.MkdirTemp("", "dnscentral-tools-")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	toolsDir = dir
	code := m.Run()
	os.RemoveAll(dir)
	os.Exit(code)
}

// toolBuild is one cmd/ binary, built at most once per test binary.
type toolBuild struct {
	once sync.Once
	bin  string
	err  error
}

var toolBuilds sync.Map // tool name → *toolBuild

// buildTools returns the paths of the named cmd/ binaries, building each
// on its first request and sharing it with every later test.
func buildTools(t *testing.T, names ...string) map[string]string {
	t.Helper()
	if testing.Short() {
		t.Skip("builds binaries")
	}
	out := make(map[string]string, len(names))
	for _, name := range names {
		v, _ := toolBuilds.LoadOrStore(name, new(toolBuild))
		tb := v.(*toolBuild)
		tb.once.Do(func() {
			tb.bin = filepath.Join(toolsDir, name)
			cmd := exec.Command("go", "build", "-o", tb.bin, "./cmd/"+name)
			if b, err := cmd.CombinedOutput(); err != nil {
				tb.err = fmt.Errorf("building %s: %v\n%s", name, err, b)
			}
		})
		if tb.err != nil {
			t.Fatal(tb.err)
		}
		out[name] = tb.bin
	}
	return out
}

func runTool(t *testing.T, bin string, args ...string) string {
	t.Helper()
	cmd := exec.Command(bin, args...)
	b, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("%s %v: %v\n%s", filepath.Base(bin), args, err, b)
	}
	return string(b)
}

// TestCLIPipeline drives dnstracegen → entrada → cloudreport end to end
// through the real binaries and on-disk files.
func TestCLIPipeline(t *testing.T) {
	bins := buildTools(t, "dnstracegen", "entrada", "cloudreport")
	dir := t.TempDir()
	pcap := filepath.Join(dir, "nl.pcap")
	report := filepath.Join(dir, "nl.json")

	out := runTool(t, bins["dnstracegen"],
		"-vantage", "nl", "-week", "w2020",
		"-queries", "8000", "-scale", "0.002", "-seed", "5", "-out", pcap)
	if !strings.Contains(out, "Google") {
		t.Fatalf("dnstracegen output:\n%s", out)
	}
	if fi, err := os.Stat(pcap); err != nil || fi.Size() < 10_000 {
		t.Fatalf("pcap not written: %v", err)
	}

	runTool(t, bins["entrada"], "-in", pcap, "-out", report)
	raw, err := os.ReadFile(report)
	if err != nil {
		t.Fatal(err)
	}
	var parsed struct {
		TotalQueries uint64         `json:"total_queries"`
		CloudShare   float64        `json:"cloud_share"`
		Providers    map[string]any `json:"providers"`
	}
	if err := json.Unmarshal(raw, &parsed); err != nil {
		t.Fatalf("report JSON: %v", err)
	}
	if parsed.TotalQueries < 8000 || parsed.CloudShare < 0.2 {
		t.Fatalf("report: %+v", parsed)
	}

	summary := runTool(t, bins["cloudreport"], "-report", report)
	for _, want := range []string{"Google", "Facebook", "Record types", "EDNS(0)"} {
		if !strings.Contains(summary, want) {
			t.Errorf("cloudreport missing %q:\n%s", want, summary)
		}
	}
}

// TestCLIShardedAnalysis verifies the multi- -in merge path.
func TestCLIShardedAnalysis(t *testing.T) {
	bins := buildTools(t, "dnstracegen", "entrada")
	dir := t.TempDir()
	a := filepath.Join(dir, "a.pcap")
	b := filepath.Join(dir, "b.pcap")
	runTool(t, bins["dnstracegen"], "-vantage", "nz", "-week", "w2019",
		"-queries", "3000", "-scale", "0.002", "-seed", "6", "-out", a)
	runTool(t, bins["dnstracegen"], "-vantage", "nz", "-week", "w2019",
		"-queries", "3000", "-scale", "0.002", "-seed", "7", "-out", b)
	report := filepath.Join(dir, "merged.json")
	runTool(t, bins["entrada"], "-in", a, "-in", b, "-out", report)
	raw, err := os.ReadFile(report)
	if err != nil {
		t.Fatal(err)
	}
	var parsed struct {
		TotalQueries uint64 `json:"total_queries"`
	}
	if err := json.Unmarshal(raw, &parsed); err != nil {
		t.Fatal(err)
	}
	if parsed.TotalQueries < 6000 {
		t.Fatalf("merged total = %d", parsed.TotalQueries)
	}
}

// TestCLIWorkersParity checks the -workers flag end to end: one flow
// shard and several write identical report JSON for the same capture.
func TestCLIWorkersParity(t *testing.T) {
	bins := buildTools(t, "dnstracegen", "entrada")
	dir := t.TempDir()
	pcap := filepath.Join(dir, "nl.pcap")
	runTool(t, bins["dnstracegen"], "-vantage", "nl", "-week", "w2020",
		"-queries", "6000", "-scale", "0.002", "-seed", "9", "-out", pcap)

	seq := filepath.Join(dir, "seq.json")
	par := filepath.Join(dir, "par.json")
	runTool(t, bins["entrada"], "-in", pcap, "-zone", "nl", "-workers", "1", "-out", seq)
	runTool(t, bins["entrada"], "-in", pcap, "-zone", "nl", "-workers", "4", "-out", par)

	a, err := os.ReadFile(seq)
	if err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(par)
	if err != nil {
		t.Fatal(err)
	}
	if string(a) != string(b) {
		t.Fatalf("-workers 4 report differs from -workers 1 report")
	}
}

// TestCLIAllMalformedExit feeds entrada a capture of pure garbage frames:
// it must warn and exit non-zero (satellite: wrong-file detection).
func TestCLIAllMalformedExit(t *testing.T) {
	bins := buildTools(t, "entrada")
	dir := t.TempDir()
	junk := filepath.Join(dir, "junk.pcap")
	f, err := os.Create(junk)
	if err != nil {
		t.Fatal(err)
	}
	w := pcapio.NewWriter(f)
	for i := 0; i < 40; i++ {
		if err := w.WritePacket(time.Unix(int64(i), 0), make([]byte, 60)); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	cmd := exec.Command(bins["entrada"], "-in", junk)
	out, err := cmd.CombinedOutput()
	if err == nil {
		t.Fatalf("entrada exited zero on an all-malformed capture:\n%s", out)
	}
	var exitErr *exec.ExitError
	if !errors.As(err, &exitErr) || exitErr.ExitCode() != 1 {
		t.Fatalf("err = %v, want exit code 1\n%s", err, out)
	}
	if !strings.Contains(string(out), "all 40 packets malformed") {
		t.Fatalf("missing wrong-file warning:\n%s", out)
	}
}

// TestCLIDnsdump drives dnsdump over a small dnstracegen trace: -n caps
// the message lines, -tcp and -provider keep only matching lines, and a
// missing -in exits 2.
func TestCLIDnsdump(t *testing.T) {
	bins := buildTools(t, "dnstracegen", "dnsdump")
	pcap := filepath.Join(t.TempDir(), "nl.pcap")
	runTool(t, bins["dnstracegen"], "-vantage", "nl", "-week", "w2020",
		"-queries", "2000", "-scale", "0.002", "-seed", "5", "-out", pcap)
	// dump returns each printed line split into fields: time, provider,
	// transport, then the message.
	dump := func(args ...string) [][]string {
		t.Helper()
		out := runTool(t, bins["dnsdump"], append([]string{"-in", pcap}, args...)...)
		var lines [][]string
		for _, l := range strings.Split(strings.TrimSpace(out), "\n") {
			f := strings.Fields(l)
			if len(f) < 4 {
				t.Fatalf("dnsdump %v: short line %q", args, l)
			}
			lines = append(lines, f)
		}
		return lines
	}
	if got := dump("-n", "5"); len(got) != 5 {
		t.Errorf("-n 5 printed %d lines, want 5", len(got))
	}
	for _, c := range []struct {
		args  []string
		field int
		want  string
	}{
		{[]string{"-tcp"}, 2, "tcp"},
		{[]string{"-provider", "Google"}, 1, "Google"},
	} {
		got := dump(c.args...)
		for _, f := range got {
			if f[c.field] != c.want {
				t.Fatalf("dnsdump %v printed %q", c.args, strings.Join(f, " "))
			}
		}
		t.Logf("dnsdump %v: %d lines", c.args, len(got))
	}

	out, err := exec.Command(bins["dnsdump"]).CombinedOutput()
	var exitErr *exec.ExitError
	if !errors.As(err, &exitErr) || exitErr.ExitCode() != 2 {
		t.Fatalf("dnsdump without -in: err = %v, want exit code 2\n%s", err, out)
	}
	if !strings.Contains(string(out), "-in is required") {
		t.Errorf("dnsdump without -in:\n%s", out)
	}
}

// TestCLILiveServerAndResolver starts the real authserver binary and
// points resolversim at it over loopback sockets.
func TestCLILiveServerAndResolver(t *testing.T) {
	bins := buildTools(t, "authserver", "resolversim")

	// Pick a free port by binding and releasing it.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()

	srv := exec.Command(bins["authserver"], "-zone", "nl", "-domains", "1000", "-listen", addr)
	srvOut := &strings.Builder{}
	srv.Stdout, srv.Stderr = srvOut, srvOut
	if err := srv.Start(); err != nil {
		t.Fatal(err)
	}
	defer func() {
		_ = srv.Process.Kill()
		_, _ = srv.Process.Wait()
	}()

	// Wait for the server to come up.
	deadline := time.Now().Add(5 * time.Second)
	for {
		conn, err := net.DialTimeout("tcp", addr, 200*time.Millisecond)
		if err == nil {
			conn.Close()
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("server did not come up: %s", srvOut)
		}
		time.Sleep(50 * time.Millisecond)
	}

	out := runTool(t, bins["resolversim"],
		"-server", addr, "-zone", "nl", "-qmin", "-validate", "-n", "100")
	if !strings.Contains(out, "query mix") || !strings.Contains(out, "NS") {
		t.Fatalf("resolversim output:\n%s", out)
	}
	if !strings.Contains(out, "resolved 100 names (0 failures)") {
		t.Fatalf("resolution failures:\n%s", out)
	}
}

// TestCLIRepro runs the full experiment harness at a tiny scale.
func TestCLIRepro(t *testing.T) {
	bins := buildTools(t, "repro")
	dir := t.TempDir()
	out := filepath.Join(dir, "EXPERIMENTS.md")
	runTool(t, bins["repro"], "-queries", "4000", "-scale", "0.002", "-seed", "8", "-out", out)
	raw, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	doc := string(raw)
	for _, want := range []string{"## Table 3", "## Figure 6", "Shape verdicts", "shape checks passed"} {
		if !strings.Contains(doc, want) {
			t.Errorf("EXPERIMENTS.md missing %q", want)
		}
	}
}
