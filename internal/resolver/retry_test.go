package resolver

import (
	"errors"
	"testing"
	"time"

	"dnscentral/internal/dnswire"
)

// flakyTransport fails the first N exchanges, then delegates.
type flakyTransport struct {
	failures int
	inner    Transport
	calls    int
}

func (f *flakyTransport) Exchange(q *dnswire.Message, tcp bool) (*dnswire.Message, time.Duration, error) {
	f.calls++
	if f.calls <= f.failures {
		return nil, 0, errors.New("injected transport failure")
	}
	return f.inner.Exchange(q, tcp)
}

func TestRetryRecoversFromTransientFailure(t *testing.T) {
	f := newFixture(t)
	inner := &EngineTransport{Engine: f.engine, Client: clientAddr}
	flaky := &flakyTransport{failures: 1, inner: inner}
	r := New("nl.", Config{EDNSSize: 1232, Retries: 1,
		Now: func() time.Time { return f.now }})
	r.AddUpstream(FamilyV4, flaky)
	res, err := r.Resolve("www.d3.nl.", dnswire.TypeA)
	if err != nil {
		t.Fatalf("retry did not recover: %v", err)
	}
	if res.Queries != 2 {
		t.Errorf("queries = %d, want 2 (fail + retry)", res.Queries)
	}
}

func TestRetryFailsOverToOtherFamily(t *testing.T) {
	f := newFixture(t)
	dead := &flakyTransport{failures: 1 << 30, inner: nil} // always fails
	live := &EngineTransport{Engine: f.engine, Client: clientAddr, SimulatedRTT: time.Millisecond}
	r := New("nl.", Config{EDNSSize: 1232, Retries: 3, Seed: 1,
		Now: func() time.Time { return f.now }})
	r.AddUpstream(FamilyV4, dead)
	r.AddUpstream(FamilyV6, live)
	// The unmeasured v4 path is tried first by policy; retries must land
	// on v6 eventually for every name.
	for i := 0; i < 20; i++ {
		name := "www.d" + string(rune('0'+i%10)) + ".nl."
		if _, err := r.Resolve(name, dnswire.TypeA); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	}
	st := r.Stats()
	if st.ByFamily[FamilyV6] == 0 {
		t.Fatal("no traffic failed over to the live family")
	}
}

func TestRetryExhaustionReturnsError(t *testing.T) {
	f := newFixture(t)
	dead := &flakyTransport{failures: 1 << 30}
	r := New("nl.", Config{EDNSSize: 1232, Retries: 2,
		Now: func() time.Time { return f.now }})
	r.AddUpstream(FamilyV4, dead)
	if _, err := r.Resolve("www.d1.nl.", dnswire.TypeA); err == nil {
		t.Fatal("dead transport resolved")
	}
	if dead.calls != 3 {
		t.Errorf("attempts = %d, want 3 (1 + 2 retries)", dead.calls)
	}
}

func TestPenaltyBounded(t *testing.T) {
	r := New("nl.", Config{})
	for i := 0; i < 100; i++ {
		r.penalize(FamilyV4)
	}
	if got := r.RTT(FamilyV4); got != 10*time.Second {
		t.Fatalf("srtt after 100 consecutive failures = %v, want the 10s cap", got)
	}
	if rto := r.rtt[FamilyV4].rto(); rto > 60*time.Second {
		t.Fatalf("rto grew unbounded: %v", rto)
	}
}
