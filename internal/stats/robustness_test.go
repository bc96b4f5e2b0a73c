package stats

import (
	"strings"
	"testing"
)

func TestRobustnessRatios(t *testing.T) {
	r := Robustness{
		Lookups: 100, Failures: 5,
		LogicalExchanges: 200, WireQueries: 260, TCPQueries: 13,
	}
	if got := r.Amplification(); got != 1.3 {
		t.Errorf("Amplification = %v", got)
	}
	if got := r.FailureRate(); got != 0.05 {
		t.Errorf("FailureRate = %v", got)
	}
	if got := r.TCPFallbackRate(); got != 0.05 {
		t.Errorf("TCPFallbackRate = %v", got)
	}
	if got := r.QueriesPerLookup(); got != 2.6 {
		t.Errorf("QueriesPerLookup = %v", got)
	}
	// Empty report: every ratio is 0, not NaN.
	var zero Robustness
	for name, got := range map[string]float64{
		"Amplification":    zero.Amplification(),
		"FailureRate":      zero.FailureRate(),
		"TCPFallbackRate":  zero.TCPFallbackRate(),
		"QueriesPerLookup": zero.QueriesPerLookup(),
	} {
		if got != 0 {
			t.Errorf("zero-report %s = %v, want 0", name, got)
		}
	}
}

func TestRobustnessFormat(t *testing.T) {
	r := Robustness{
		Lookups: 100, Failures: 2, CacheHits: 30,
		LogicalExchanges: 180, WireQueries: 220,
		Retries: 40, AttemptErrors: 38, ServfailRetries: 2, FailedExchanges: 2,
		TCPQueries: 11, TCPFallbacks: 9, FaultsInjected: 44,
	}
	out := r.Format()
	if out != r.Format() {
		t.Fatal("Format is not stable across calls")
	}
	if !strings.HasPrefix(out, "robustness report:\n") {
		t.Fatalf("missing header:\n%s", out)
	}
	for _, want := range []string{
		"lookups                 100 (2 failed, 30 cache hits)",
		"wire queries            220 (40 retries, 38 attempt errors, 2 servfail retries)",
		"faults injected          44",
		"amplification          1.2222 wire queries per logical exchange",
		"queries/lookup         2.2000",
		"failure rate           0.0200",
		"tcp fallback rate      0.0500 (11 TCP queries, 9 TC fallbacks)",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("report missing %q:\n%s", want, out)
		}
	}
}
