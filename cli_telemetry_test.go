package dnscentral_test

import (
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"
)

// genSmallPcap writes one small trace for reuse across subtests.
func genSmallPcap(t *testing.T, bin, dir string, queries int) string {
	t.Helper()
	pcap := filepath.Join(dir, "trace.pcap")
	runTool(t, bin, "-vantage", "nl", "-week", "w2020",
		"-queries", fmt.Sprint(queries), "-scale", "0.002", "-seed", "3", "-out", pcap)
	return pcap
}

// TestCLIOutCloseErrorFailsRun regresses the -out error handling of
// entrada and repro: writing the report to /dev/full (every write fails
// with ENOSPC) must exit non-zero instead of reporting success over a
// truncated file.
func TestCLIOutCloseErrorFailsRun(t *testing.T) {
	if _, err := os.Stat("/dev/full"); err != nil {
		t.Skip("/dev/full not available")
	}
	bins := buildTools(t, "dnstracegen", "entrada", "repro")
	dir := t.TempDir()
	pcap := genSmallPcap(t, bins["dnstracegen"], dir, 2000)

	for _, tc := range []struct {
		name string
		args []string
	}{
		{"entrada", []string{"-in", pcap, "-out", "/dev/full"}},
		{"repro", []string{"-queries", "2000", "-scale", "0.002", "-seed", "8", "-out", "/dev/full"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			out, err := exec.Command(bins[tc.name], tc.args...).CombinedOutput()
			if err == nil {
				t.Fatalf("%s exited 0 writing its report to /dev/full:\n%s", tc.name, out)
			}
			var exitErr *exec.ExitError
			if !errors.As(err, &exitErr) || exitErr.ExitCode() != 1 {
				t.Fatalf("err = %v, want exit code 1\n%s", err, out)
			}
		})
	}
}

// TestCLIEntradaManyInputsUnderFDLimit regresses the descriptor
// exhaustion bug: entrada used to open every -in upfront and defer all
// closes to exit, so enough shards tripped ulimit -n. With lazy
// open/close, 128 inputs must ingest fine under a 64-descriptor cap.
func TestCLIEntradaManyInputsUnderFDLimit(t *testing.T) {
	bins := buildTools(t, "dnstracegen", "entrada")
	dir := t.TempDir()
	pcap := genSmallPcap(t, bins["dnstracegen"], dir, 2000)

	var sh strings.Builder
	sh.WriteString("ulimit -n 64 && exec " + bins["entrada"] +
		" -workers 2 -out " + filepath.Join(dir, "merged.json"))
	const inputs = 128
	for i := 0; i < inputs; i++ {
		sh.WriteString(" -in " + pcap)
	}
	out, err := exec.Command("sh", "-c", sh.String()).CombinedOutput()
	if err != nil {
		t.Fatalf("entrada with %d inputs under ulimit -n 64: %v\n%s", inputs, err, out)
	}
	if !strings.Contains(string(out), fmt.Sprintf("%d workers", 2)) {
		t.Fatalf("unexpected entrada output:\n%s", out)
	}
}

// TestCLIResolversimGracefulShutdown checks the SIGINT handler: an
// interrupted resolversim run must still print its partial query mix
// and exit zero, like authserver does.
func TestCLIResolversimGracefulShutdown(t *testing.T) {
	bins := buildTools(t, "authserver", "resolversim")
	addr, _ := startAuthserver(t, bins["authserver"])

	sim := exec.Command(bins["resolversim"],
		"-server", addr, "-zone", "nl", "-qmin", "-validate", "-n", "500000")
	var simOut strings.Builder
	sim.Stdout, sim.Stderr = &simOut, &simOut
	if err := sim.Start(); err != nil {
		t.Fatal(err)
	}
	time.Sleep(500 * time.Millisecond)
	if err := sim.Process.Signal(os.Interrupt); err != nil {
		t.Fatal(err)
	}
	if err := sim.Wait(); err != nil {
		t.Fatalf("resolversim did not exit cleanly on SIGINT: %v\n%s", err, simOut.String())
	}
	out := simOut.String()
	if !strings.Contains(out, "stopping after") {
		t.Fatalf("missing graceful-shutdown notice:\n%s", out)
	}
	if !strings.Contains(out, "query mix") {
		t.Fatalf("interrupted run dropped its report:\n%s", out)
	}
}

// syncBuilder is a Writer safe to read while an exec pipe goroutine is
// still appending to it.
type syncBuilder struct {
	mu sync.Mutex
	b  strings.Builder
}

func (s *syncBuilder) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.Write(p)
}

func (s *syncBuilder) String() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.String()
}

// TestCLIMetricsEndpointAuthserver boots authserver with -metrics-addr,
// drives real queries through it, and scrapes /metrics: the Prometheus
// page must carry live engine counters.
func TestCLIMetricsEndpointAuthserver(t *testing.T) {
	bins := buildTools(t, "authserver", "resolversim")
	addr, srvOut := startAuthserver(t, bins["authserver"], "-metrics-addr", "127.0.0.1:0")

	maddr := waitMetricsAddr(t, srvOut)
	runTool(t, bins["resolversim"], "-server", addr, "-zone", "nl", "-n", "50")

	body := httpGet(t, "http://"+maddr+"/metrics")
	if !strings.Contains(body, "# TYPE authserver_queries_total counter") {
		t.Fatalf("/metrics missing TYPE line:\n%s", body)
	}
	if !metricPositive(body, "authserver_queries_total") {
		t.Fatalf("authserver_queries_total not live after 50 resolutions:\n%s", body)
	}
	if !metricPositive(body, "authserver_datagrams_total") {
		t.Fatalf("authserver_datagrams_total not live:\n%s", body)
	}
	jsonBody := httpGet(t, "http://"+maddr+"/metrics.json")
	if !strings.Contains(jsonBody, `"authserver_queries_total"`) {
		t.Fatalf("/metrics.json missing counter:\n%s", jsonBody)
	}
}

// TestCLIMetricsEndpointEntrada scrapes /metrics from an entrada run
// large enough to still be ingesting when the scrape lands; the
// pipeline counters must be live mid-run.
func TestCLIMetricsEndpointEntrada(t *testing.T) {
	bins := buildTools(t, "dnstracegen", "entrada")
	dir := t.TempDir()
	pcap := genSmallPcap(t, bins["dnstracegen"], dir, 8000)

	args := []string{"-workers", "1", "-metrics-addr", "127.0.0.1:0",
		"-out", filepath.Join(dir, "rep.json")}
	for i := 0; i < 200; i++ {
		args = append(args, "-in", pcap)
	}
	cmd := exec.Command(bins["entrada"], args...)
	out := &syncBuilder{}
	cmd.Stdout, cmd.Stderr = out, out
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	defer func() {
		_ = cmd.Process.Kill()
		_, _ = cmd.Process.Wait()
	}()

	maddr := waitMetricsAddr(t, out)
	deadline := time.Now().Add(10 * time.Second)
	for {
		resp, err := http.Get("http://" + maddr + "/metrics")
		if err == nil {
			b, rerr := io.ReadAll(resp.Body)
			resp.Body.Close()
			if rerr == nil && metricPositive(string(b), "pipeline_packets_total") {
				return // live counters observed mid-run
			}
		}
		if time.Now().After(deadline) {
			t.Fatalf("no live pipeline_packets_total before the run ended:\n%s", out.String())
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// TestCLIMetricsEndpointEntradaFollow scrapes /metrics from entrada
// -follow while a writer appends to the capture: the follow reader's
// wakeup counters and its bytes-behind gauge must be on the page, and on
// Linux the writes themselves must have woken the reader.
func TestCLIMetricsEndpointEntradaFollow(t *testing.T) {
	bins := buildTools(t, "dnstracegen", "entrada")
	dir := t.TempDir()
	pcap := genSmallPcap(t, bins["dnstracegen"], dir, 3000)
	live := filepath.Join(dir, "live.pcap")

	cmd := exec.Command(bins["entrada"], "-follow", "-in", live, "-window", "1h",
		"-metrics-addr", "127.0.0.1:0", "-out", filepath.Join(dir, "rep.json"))
	out := &syncBuilder{}
	cmd.Stdout, cmd.Stderr = out, out
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	defer func() {
		_ = cmd.Process.Kill()
		_, _ = cmd.Process.Wait()
	}()
	maddr := waitMetricsAddr(t, out)
	appended := slowAppend(t, live, pcap, 4099, 5*time.Millisecond)
	defer func() { <-appended }()

	woken := `entrada_follow_wakeups_total{cause="event"}`
	if runtime.GOOS != "linux" {
		woken = `entrada_follow_wakeups_total{cause="poll"}` // no change events
	}
	var page string
	waitFor(t, "follow telemetry on /metrics", 10*time.Second, func() bool {
		page = httpGet(t, "http://"+maddr+"/metrics")
		return metricPositive(page, woken)
	})
	for _, want := range []string{
		"# TYPE entrada_follow_wakeups_total counter",
		`entrada_follow_wakeups_total{cause="poll"} `,
		"# TYPE entrada_follow_bytes_behind gauge",
	} {
		if !strings.Contains(page, want) {
			t.Fatalf("/metrics missing %q:\n%s", want, page)
		}
	}
}

// waitMetricsAddr extracts the ephemeral endpoint address from the
// "telemetry: serving /metrics on ADDR" stderr line.
func waitMetricsAddr(t *testing.T, out *syncBuilder) string {
	t.Helper()
	const marker = "telemetry: serving /metrics on "
	deadline := time.Now().Add(5 * time.Second)
	for {
		s := out.String()
		if i := strings.Index(s, marker); i >= 0 {
			rest := s[i+len(marker):]
			if j := strings.IndexByte(rest, '\n'); j >= 0 {
				return strings.TrimSpace(rest[:j])
			}
		}
		if time.Now().After(deadline) {
			t.Fatalf("no metrics endpoint line:\n%s", s)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

func httpGet(t *testing.T, url string) string {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("%s: %s\n%s", url, resp.Status, b)
	}
	return string(b)
}

// metricPositive reports whether the Prometheus page has a sample of
// the named family with a value > 0.
func metricPositive(body, name string) bool {
	for _, line := range strings.Split(body, "\n") {
		if !strings.HasPrefix(line, name+" ") && !strings.HasPrefix(line, name+"{") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) == 2 && fields[1] != "0" {
			return true
		}
	}
	return false
}

// TestCLIProgressInterval checks the -progress-interval snapshot line:
// even a short dnstracegen run must print its final telemetry totals.
func TestCLIProgressInterval(t *testing.T) {
	bins := buildTools(t, "dnstracegen")
	dir := t.TempDir()
	out := runTool(t, bins["dnstracegen"], "-vantage", "nl", "-week", "w2020",
		"-queries", "2000", "-scale", "0.002", "-seed", "3",
		"-progress-interval", "50ms", "-out", filepath.Join(dir, "t.pcap"))
	if !strings.Contains(out, "dnstracegen: 2000/2000 events") {
		t.Fatalf("missing final telemetry snapshot:\n%s", out)
	}
}
