package dnscentral_test

import (
	"encoding/json"
	"net"
	"os"
	"os/exec"
	"strings"
	"testing"
	"time"
)

// startRecursor boots cmd/recursor against the given upstream spec and
// waits for its TCP side to accept.
func startRecursor(t *testing.T, bin, upstreams string, extra ...string) (string, *syncBuilder, *exec.Cmd) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()

	args := append([]string{"-zone", "nl", "-listen", addr, "-upstreams", upstreams}, extra...)
	cmd := exec.Command(bin, args...)
	out := &syncBuilder{}
	cmd.Stdout, cmd.Stderr = out, out
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		_ = cmd.Process.Kill()
		_, _ = cmd.Process.Wait()
	})
	deadline := time.Now().Add(5 * time.Second)
	for {
		conn, err := net.DialTimeout("tcp", addr, 200*time.Millisecond)
		if err == nil {
			conn.Close()
			return addr, out, cmd
		}
		if time.Now().After(deadline) {
			t.Fatalf("recursor did not come up: %s", out.String())
		}
		time.Sleep(50 * time.Millisecond)
	}
}

// TestCLIRecursorCacheTier is the acceptance run: two authserver
// "providers" behind cmd/recursor, a Zipf stub load from resolversim
// -stub, >90% cache hit rate scraped from /metrics.json, and the
// centralization report on shutdown.
func TestCLIRecursorCacheTier(t *testing.T) {
	bins := buildTools(t, "authserver", "recursor", "resolversim")
	addrA, _ := startAuthserver(t, bins["authserver"])
	addrB, _ := startAuthserver(t, bins["authserver"])

	raddr, rout, rcmd := startRecursor(t, bins["recursor"],
		"cloudA="+addrA+",cloudB="+addrB,
		"-metrics-addr", "127.0.0.1:0", "-hedge-delay", "250ms")
	maddr := waitMetricsAddr(t, rout)

	// Zipf skew over 200 names: most of 5000 queries repeat the head, so
	// the cache must absorb well over 90% of them.
	simOut := runTool(t, bins["resolversim"], "-server", raddr, "-zone", "nl",
		"-stub", "-n", "5000", "-stub-names", "200", "-stub-workers", "4", "-seed", "11")
	if !strings.Contains(simOut, "stub load:") {
		t.Fatalf("stub mode output:\n%s", simOut)
	}
	if !strings.Contains(simOut, "5000 answered, 0 timeouts") {
		t.Fatalf("stub queries lost:\n%s", simOut)
	}

	var raw map[string]any
	if err := json.Unmarshal([]byte(httpGet(t, "http://"+maddr+"/metrics.json")), &raw); err != nil {
		t.Fatal(err)
	}
	metric := func(name string) float64 {
		v, ok := raw[name].(float64)
		if !ok {
			t.Fatalf("metric %q missing or non-numeric: %v", name, raw[name])
		}
		return v
	}
	hits, misses := metric("recursor_cache_hits_total"), metric("recursor_cache_misses_total")
	if hits+misses < 5000 {
		t.Fatalf("cache lookups = %v, want ≥ 5000", hits+misses)
	}
	rate := hits / (hits + misses)
	if rate < 0.9 {
		t.Fatalf("hit rate = %.3f, want > 0.9 on the Zipf workload", rate)
	}
	if metric("recursor_stub_queries_total") < 5000 {
		t.Fatalf("stub counter = %v", metric("recursor_stub_queries_total"))
	}
	// EWMA-P2C state must be visible per upstream.
	body := httpGet(t, "http://"+maddr+"/metrics")
	for _, want := range []string{
		`recursor_upstream_queries_total{upstream="cloudA"}`,
		`recursor_upstream_queries_total{upstream="cloudB"}`,
		`recursor_upstream_ewma_rtt_us{upstream="cloudA"}`,
		"recursor_hedges_total",
		"recursor_answer_seconds",
	} {
		if !strings.Contains(body, want) {
			t.Fatalf("/metrics missing %q:\n%s", want, body)
		}
	}

	// SIGINT: the run must end with the centralization report comparing
	// upstream and stub vantage shares.
	if err := rcmd.Process.Signal(os.Interrupt); err != nil {
		t.Fatal(err)
	}
	if err := rcmd.Wait(); err != nil {
		t.Fatalf("recursor did not exit cleanly on SIGINT: %v\n%s", err, rout.String())
	}
	report := rout.String()
	for _, want := range []string{
		"centralization report", "hit rate", "provider shares",
		"cloudA", "cloudB", "HHI",
	} {
		if !strings.Contains(report, want) {
			t.Fatalf("shutdown report missing %q:\n%s", want, report)
		}
	}
}

// TestCLIRecursorAggressiveNSEC drives junk names through -aggressive
// and checks RFC 8198 synthesis shows up in the metrics.
func TestCLIRecursorAggressiveNSEC(t *testing.T) {
	bins := buildTools(t, "authserver", "recursor")
	addrA, _ := startAuthserver(t, bins["authserver"])
	raddr, rout, _ := startRecursor(t, bins["recursor"], "cloudA="+addrA,
		"-aggressive", "-metrics-addr", "127.0.0.1:0")
	maddr := waitMetricsAddr(t, rout)

	// Raw DO-bit queries for junk names over UDP; after the first
	// NXDOMAIN the learned NSEC range must deny the rest locally.
	conn, err := net.Dial("udp", raddr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	for i := 0; i < 5; i++ {
		// Hand-built query: junk<i>zz.nl. A IN with a DO-bit OPT.
		name := []byte{7, 'j', 'u', 'n', 'k', byte('0' + i), 'z', 'z', 2, 'n', 'l', 0}
		q := []byte{0, byte(i + 1), 0, 0, 0, 1, 0, 0, 0, 0, 0, 1}
		q = append(q, name...)
		q = append(q, 0, 1, 0, 1)                           // A IN
		q = append(q, 0, 0, 41, 4, 208, 0, 0, 128, 0, 0, 0) // OPT: 1232, DO
		if _, err := conn.Write(q); err != nil {
			t.Fatal(err)
		}
		buf := make([]byte, 65535)
		conn.SetReadDeadline(time.Now().Add(5 * time.Second))
		n, err := conn.Read(buf)
		if err != nil {
			t.Fatal(err)
		}
		if rcode := buf[3] & 0xF; rcode != 3 {
			t.Fatalf("junk%dzz.nl. rcode = %d, want NXDOMAIN", i, rcode)
		}
		_ = n
	}
	body := httpGet(t, "http://"+maddr+"/metrics")
	if !metricPositive(body, "recursor_aggressive_hits_total") {
		t.Fatalf("no aggressive NSEC synthesis recorded:\n%s", body)
	}
}
