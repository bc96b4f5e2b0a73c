package sim

import (
	"bytes"
	"fmt"
	"net/netip"
	"os"
	"strconv"
	"testing"
	"time"

	"dnscentral/internal/dnswire"
	"dnscentral/internal/faults"
	"dnscentral/internal/pcapio"
	"dnscentral/internal/resolver"
	"dnscentral/internal/stats"
	"dnscentral/internal/zonedb"
)

// chaosSeed returns the fault seed for this run. CI sets CHAOS_SEED to
// sweep the chaos matrix over several fixed seeds; locally it defaults
// to 1.
func chaosSeed(t *testing.T) int64 {
	t.Helper()
	v := os.Getenv("CHAOS_SEED")
	if v == "" {
		return 1
	}
	seed, err := strconv.ParseInt(v, 10, 64)
	if err != nil {
		t.Fatalf("bad CHAOS_SEED %q: %v", v, err)
	}
	return seed
}

// chaosRun resolves n names through an impaired path and returns the
// capture bytes, the robustness report, and the failure count.
func chaosRun(t *testing.T, fcfg *faults.Config, rcfg resolver.Config, n int) ([]byte, stats.Robustness, int) {
	t.Helper()
	z, err := zonedb.NewCcTLD("nl", 2000, 0, 0.55, []string{"ns1.dns.nl"})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	sm, err := New(Config{Zone: z, Sink: workloadSink{pcapio.NewWriter(&buf)}, Faults: fcfg})
	if err != nil {
		t.Fatal(err)
	}
	r, err := sm.AddResolver(ResolverSpec{
		Addr4:  netip.MustParseAddr("192.0.2.53"),
		Config: rcfg,
	})
	if err != nil {
		t.Fatal(err)
	}
	failures := 0
	for i := 0; i < n; i++ {
		if _, err := r.Resolve(fmt.Sprintf("www.d%d.nl.", i), dnswire.TypeA); err != nil {
			failures++
		}
	}
	// The one resolver has its own injector when fcfg is set.
	var fs faults.Stats
	if len(sm.injectors) > 0 {
		fs = sm.injectors[0].Stats()
	}
	rep := faults.Robustness(r.Stats(), uint64(n), uint64(failures), fs)
	return buf.Bytes(), rep, failures
}

// TestChaosDeterminism: the acceptance bar for the fault layer — the
// same seed and impairment plan must reproduce the run exactly, down to
// the capture bytes and the formatted robustness report.
func TestChaosDeterminism(t *testing.T) {
	fcfg := &faults.Config{
		Loss: 0.15, Duplicate: 0.05, Reorder: 0.05, Corrupt: 0.05,
		Truncate: 0.05, Jitter: 2 * time.Millisecond,
		Brownout: faults.Brownout{Every: 40, Len: 5, Mode: faults.BrownoutServfail},
		Seed:     chaosSeed(t),
	}
	rcfg := resolver.Config{
		EDNSSize: 1232, Retries: 8, Seed: 7,
		RetryBackoff: 50 * time.Millisecond, AttemptTimeout: 200 * time.Millisecond,
		RetryServfail: true,
	}
	pcapA, repA, failA := chaosRun(t, fcfg, rcfg, 120)
	pcapB, repB, failB := chaosRun(t, fcfg, rcfg, 120)
	if failA != failB {
		t.Fatalf("failure counts diverged: %d vs %d", failA, failB)
	}
	if repA != repB {
		t.Fatalf("robustness reports diverged:\n%+v\n%+v", repA, repB)
	}
	if repA.Format() != repB.Format() {
		t.Fatalf("formatted reports diverged:\n%s\n%s", repA.Format(), repB.Format())
	}
	if !bytes.Equal(pcapA, pcapB) {
		t.Fatalf("captures diverged: %d vs %d bytes", len(pcapA), len(pcapB))
	}
	if repA.FaultsInjected == 0 {
		t.Fatal("impaired run injected no faults")
	}
}

// TestChaosLossAmplification: under 20% per-direction UDP loss every
// lookup must still complete within the retry budget, and the measured
// retry amplification must sit strictly between the perfect-network 1.0
// and the budget ceiling — the paper's §5 junk/retransmission inflation,
// reproduced and bounded.
func TestChaosLossAmplification(t *testing.T) {
	fcfg := &faults.Config{Loss: 0.2, Seed: chaosSeed(t)}
	rcfg := resolver.Config{
		EDNSSize: 1232, Retries: 8, Seed: 7,
		RetryBackoff: 50 * time.Millisecond, AttemptTimeout: 200 * time.Millisecond,
	}
	_, rep, failures := chaosRun(t, fcfg, rcfg, 150)
	if failures != 0 {
		t.Fatalf("%d lookups failed under 20%% loss with a %d-retry budget", failures, rcfg.Retries)
	}
	amp := rep.Amplification()
	if amp <= 1.0 {
		t.Fatalf("amplification %.3f under 20%% loss, want > 1.0", amp)
	}
	if ceiling := float64(1 + rcfg.Retries); amp > ceiling {
		t.Fatalf("amplification %.3f exceeds retry budget ceiling %.1f", amp, ceiling)
	}
	if rep.WireQueries <= rep.LogicalExchanges {
		t.Fatalf("wire %d <= logical %d despite loss", rep.WireQueries, rep.LogicalExchanges)
	}
}

// TestChaosZeroImpairmentMatchesBaseline: a disabled fault config must
// leave the simulation byte-identical to one with no fault config at
// all — the impairment layer costs nothing when off.
func TestChaosZeroImpairmentMatchesBaseline(t *testing.T) {
	rcfg := resolver.Config{EDNSSize: 1232, Seed: 7}
	base, repBase, _ := chaosRun(t, nil, rcfg, 100)
	off, repOff, _ := chaosRun(t, &faults.Config{Seed: 99}, rcfg, 100)
	if !bytes.Equal(base, off) {
		t.Fatalf("disabled fault config changed the capture: %d vs %d bytes", len(base), len(off))
	}
	if repBase.WireQueries != repOff.WireQueries || repOff.FaultsInjected != 0 {
		t.Fatalf("reports diverged: %+v vs %+v", repBase, repOff)
	}
	if amp := repOff.Amplification(); amp != 1.0 {
		t.Fatalf("amplification %.3f on a perfect network, want exactly 1.0", amp)
	}
}

// TestChaosBrownoutServfail: during brownout windows the resolver
// retries SERVFAILs but lookups still complete (the SERVFAIL answer is
// surfaced, not an error), and the window shows up in the fault stats.
func TestChaosBrownoutServfail(t *testing.T) {
	fcfg := &faults.Config{
		Brownout: faults.Brownout{Every: 10, Len: 3, Mode: faults.BrownoutServfail},
		Seed:     chaosSeed(t),
	}
	rcfg := resolver.Config{EDNSSize: 1232, Retries: 2, Seed: 7, RetryServfail: true}
	_, rep, failures := chaosRun(t, fcfg, rcfg, 80)
	if failures != 0 {
		t.Fatalf("%d lookups turned into hard errors during servfail brownouts", failures)
	}
	if rep.ServfailRetries == 0 {
		t.Fatal("no servfail retries recorded across brownout windows")
	}
	if rep.FaultsInjected == 0 {
		t.Fatal("no brownout faults recorded")
	}
}
