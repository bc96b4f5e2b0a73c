package recursor

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"dnscentral/internal/authserver"
	"dnscentral/internal/dnswire"
	"dnscentral/internal/resolver"
)

// brownableTransport wraps a live transport with a kill switch — the
// in-process equivalent of browning out the sole upstream.
type brownableTransport struct {
	mu   sync.Mutex
	live resolver.Transport
	down bool
}

func (b *brownableTransport) setDown(down bool) {
	b.mu.Lock()
	b.down = down
	b.mu.Unlock()
}

func (b *brownableTransport) Exchange(q *dnswire.Message, tcp bool) (*dnswire.Message, time.Duration, error) {
	b.mu.Lock()
	down := b.down
	b.mu.Unlock()
	if down {
		return nil, 0, errors.New("brownout: upstream dark")
	}
	return b.live.Exchange(q, tcp)
}

// outageFixture is a single-upstream recursor whose upstream can be
// switched dark, with serve-stale, failure caching and breakers armed.
func outageFixture(t *testing.T, cfg Config) (*Recursor, *brownableTransport, *virtualClock) {
	t.Helper()
	f := newFixture(t)
	tr := &brownableTransport{live: &resolver.EngineTransport{Engine: f.engine, Client: stubAddr}}
	cfg.Origin = "nl."
	cfg.Seed = 42
	cfg.Now = f.clk.Now
	pool := NewPool(cfg.Seed, &Upstream{Name: "soleCloud", Transport: tr})
	return New(cfg, pool), tr, f.clk
}

func TestServeStaleSurvivesBrownout(t *testing.T) {
	r, tr, clk := outageFixture(t, Config{
		MaxTTL:   30 * time.Second,
		MaxStale: time.Hour,
		StaleTTL: 30 * time.Second,
		FailTTL:  2 * time.Second,
		Breaker:  BreakerConfig{Failures: 2, OpenFor: time.Second},
	})
	sc := NewScratch()

	// Warm the cache, then expire the entry and kill the upstream.
	warm := query(t, 1, "www.d5.nl.", dnswire.TypeA, 1232, false)
	if resp := r.HandleWire(warm, nil, false, sc); resp == nil {
		t.Fatal("warm query dropped")
	}
	warmQueries := r.pool.Upstream(0).queries.Load()
	clk.Advance(31 * time.Second)
	tr.setDown(true)

	// Phase A — burst at one instant: every repeat ask during the
	// brownout must still get the (stale) answer, TTLs clamped to
	// StaleTTL. The first ask burns one refresh attempt; the failure
	// cache absorbs the other 99 without touching the wire.
	const asks = 100
	for i := 0; i < asks; i++ {
		q := query(t, uint16(10+i), "www.d5.nl.", dnswire.TypeA, 1232, false)
		resp := r.HandleWire(q, nil, false, sc)
		if resp == nil {
			t.Fatalf("ask %d dropped during brownout", i)
		}
		m, err := dnswire.Unpack(resp)
		if err != nil {
			t.Fatalf("ask %d unparseable: %v", i, err)
		}
		if m.Header.RCode != dnswire.RCodeNoError {
			t.Fatalf("ask %d rcode = %s, want stale NOERROR", i, m.Header.RCode)
		}
		for _, rr := range m.Answers {
			if rr.TTL > 30 {
				t.Fatalf("stale TTL %d exceeds the 30s clamp", rr.TTL)
			}
		}
		r.WaitRefreshes() // settle the background refresh before the next ask
	}
	if got := r.staleServed.Load(); got != asks {
		t.Fatalf("staleServed = %d, want %d (100%% stale availability)", got, asks)
	}
	if r.servfails.Load() != 0 {
		t.Fatalf("servfails = %d during brownout, want 0", r.servfails.Load())
	}
	if burned := r.pool.Upstream(0).queries.Load() - warmQueries; burned != 1 {
		t.Fatalf("one-instant burst burned %d upstream attempts, want 1 (fail cache)", burned)
	}
	if r.cache.failHits.Load() == 0 {
		t.Fatal("failure cache absorbed nothing")
	}

	// Phase B — the brownout wears on: once the fail mark expires each
	// refresh retries, the breaker trips at its 2-failure threshold and
	// every later attempt is a single half-open probe per window. Stale
	// answers keep flowing throughout.
	for i := 0; i < 5; i++ {
		clk.Advance(3 * time.Second) // past FailTTL and the breaker window
		q := query(t, uint16(200+i), "www.d5.nl.", dnswire.TypeA, 1232, false)
		if resp := r.HandleWire(q, nil, false, sc); resp == nil {
			t.Fatalf("sustained ask %d dropped", i)
		}
		r.WaitRefreshes()
	}
	if got := r.staleServed.Load(); got != asks+5 {
		t.Fatalf("staleServed = %d after sustained phase, want %d", got, asks+5)
	}
	burned := r.pool.Upstream(0).queries.Load() - warmQueries
	if burned > 6 {
		t.Fatalf("brownout leaked %d upstream attempts, want ≤ 6 (probe rate)", burned)
	}
	if r.pool.Upstream(0).BreakerState() != BreakerOpen {
		t.Fatal("sole upstream's breaker must be open after failed probes")
	}
	if r.pool.Upstream(0).BreakerOpens() == 0 {
		t.Fatal("breaker never recorded an open")
	}

	// Recovery: upstream back, breaker window passed — the next refresh
	// probe repopulates the entry and fresh answers resume.
	tr.setDown(false)
	clk.Advance(3 * time.Second) // past FailTTL and the breaker window
	q := query(t, 900, "www.d5.nl.", dnswire.TypeA, 1232, false)
	if resp := r.HandleWire(q, nil, false, sc); resp == nil {
		t.Fatal("recovery ask dropped")
	}
	r.WaitRefreshes()
	if r.pool.Upstream(0).BreakerState() != BreakerClosed {
		t.Fatal("successful probe must close the breaker")
	}
	if r.cache.Get(AppendKey(nil, []byte("www.d5.nl."), dnswire.TypeA, false)) == nil {
		t.Fatal("refresh did not repopulate the entry")
	}
}

func TestColdMissDuringOutageServfailsWithoutStorm(t *testing.T) {
	r, tr, clk := outageFixture(t, Config{
		MaxStale: time.Hour,
		FailTTL:  time.Second,
		Breaker:  BreakerConfig{Failures: 2, OpenFor: 10 * time.Second},
	})
	sc := NewScratch()
	tr.setDown(true)

	// A name with no cached history: nothing to serve stale, so the
	// stub sees SERVFAIL — but the miss storm stays off the wire. The
	// clock creeps forward so the fail mark periodically expires; those
	// retries hit the open breaker and fast-fail instead of the wire.
	for i := 0; i < 50; i++ {
		if i%3 == 0 {
			clk.Advance(1500 * time.Millisecond)
		}
		q := query(t, uint16(i), "www.d9.nl.", dnswire.TypeA, 1232, false)
		resp := r.HandleWire(q, nil, false, sc)
		if resp == nil {
			t.Fatalf("ask %d dropped", i)
		}
		if rc := dnswire.RCode(resp[3] & 0xF); rc != dnswire.RCodeServFail {
			t.Fatalf("ask %d rcode = %s, want SERVFAIL", i, rc)
		}
	}
	// Two wire attempts trip the breaker; after that only half-open
	// probes (one per 10s window over ~25s of virtual time) get out.
	if got := r.pool.Upstream(0).queries.Load(); got > 6 {
		t.Fatalf("cold-miss storm leaked %d upstream attempts, want ≤ 6", got)
	}
	if r.servfails.Load() != 50 {
		t.Fatalf("servfails = %d, want 50", r.servfails.Load())
	}
	if r.cache.failHits.Load() == 0 {
		t.Fatal("failure cache absorbed nothing")
	}
	if r.breakerFastFails.Load() == 0 {
		t.Fatal("no fill fast-failed on the open breaker")
	}
}

func TestWaterTortureGuardShieldsUpstream(t *testing.T) {
	f := newFixture(t)
	r := f.recursor(Config{
		Flood: FloodConfig{NXPerSec: 10, Hold: 5 * time.Second, ProbeRate: 1},
	})
	sc := NewScratch()

	// 100 unique junk labels directly under the origin — the engine
	// answers NXDOMAIN for each (names under a delegation get referrals
	// instead, which the recursor caches like any answer). parentZone
	// accounts them all to "nl.", and the frozen clock lands the whole
	// flood in one 1s rate window.
	refusedSeen := false
	for i := 0; i < 100; i++ {
		name := fmt.Sprintf("w%04x-junk.nl.", i)
		q := query(t, uint16(i), name, dnswire.TypeA, 1232, false)
		resp := r.HandleWire(q, nil, false, sc)
		if resp == nil {
			t.Fatalf("flood query %d dropped", i)
		}
		if dnswire.RCode(resp[3]&0xF) == dnswire.RCodeRefused {
			refusedSeen = true
		}
	}
	if !refusedSeen {
		t.Fatal("guard never tripped to REFUSED")
	}
	if got := r.floodRefused.Load(); got < 80 {
		t.Fatalf("floodRefused = %d, want ≥ 80 of 100", got)
	}
	// Upstream saw the detection threshold plus the probe trickle, not
	// the flood.
	if got := upstreamQueries(r); got > 15 {
		t.Fatalf("flood leaked %d upstream queries, want ≤ 15", got)
	}

	// Deeper zones key to their own parent ("d2.nl."), so real names
	// under delegations still resolve while "nl." itself is suppressed.
	if resp := r.HandleWire(query(t, 901, "www.d2.nl.", dnswire.TypeA, 1232, false), nil, false, sc); resp == nil ||
		dnswire.RCode(resp[3]&0xF) != dnswire.RCodeNoError {
		t.Fatal("unrelated zone impaired by the guard")
	}
}

func TestUpstreamCookiesRoundTrip(t *testing.T) {
	f := newFixture(t)
	r := f.recursor(Config{UseCookies: true})
	sc := NewScratch()

	before := f.engine.Stats()
	if resp := r.HandleWire(query(t, 1, "www.d5.nl.", dnswire.TypeA, 1232, false), nil, false, sc); resp == nil {
		t.Fatal("query dropped")
	}
	after := f.engine.Stats()
	if after.CookieSeen == before.CookieSeen {
		t.Fatal("upstream query carried no COOKIE option")
	}
	// The jar must have learned the server cookie from the response;
	// the next query then presents a full client+server cookie.
	u := r.pool.Upstream(0)
	if u.jar == nil {
		t.Fatal("cookies enabled but no jar armed")
	}
	if got := len(u.jar.Option()); got <= authserver.ClientCookieLen {
		u2 := r.pool.Upstream(1)
		if u2.jar == nil || len(u2.jar.Option()) <= authserver.ClientCookieLen {
			t.Fatalf("no jar learned a server cookie (option %d bytes)", got)
		}
	}
}

// outageScript drives one deterministic warm→brownout→flood sequence
// and returns the formatted resilience report.
func outageScript(t *testing.T) string {
	t.Helper()
	r, tr, clk := outageFixture(t, Config{
		MaxTTL:   30 * time.Second,
		MaxStale: time.Hour,
		FailTTL:  2 * time.Second,
		Breaker:  BreakerConfig{Failures: 2, OpenFor: time.Second},
		Flood:    FloodConfig{NXPerSec: 10},
	})
	sc := NewScratch()
	for i := 0; i < 10; i++ {
		r.HandleWire(query(t, uint16(i), fmt.Sprintf("www.d%d.nl.", i), dnswire.TypeA, 1232, false), nil, false, sc)
	}
	clk.Advance(31 * time.Second)
	tr.setDown(true)
	for i := 0; i < 30; i++ {
		r.HandleWire(query(t, uint16(100+i), fmt.Sprintf("www.d%d.nl.", i%10), dnswire.TypeA, 1232, false), nil, false, sc)
		r.WaitRefreshes()
	}
	tr.setDown(false)
	for i := 0; i < 40; i++ {
		r.HandleWire(query(t, uint16(200+i), fmt.Sprintf("w%03x-junk.nl.", i), dnswire.TypeA, 1232, false), nil, false, sc)
	}
	r.WaitRefreshes()
	return r.Resilience().Format()
}

func TestResilienceReportDeterministic(t *testing.T) {
	a, b := outageScript(t), outageScript(t)
	if a != b {
		t.Fatalf("same-seed resilience reports differ:\n--- run 1\n%s--- run 2\n%s", a, b)
	}
	for _, want := range []string{"availability", "stale share", "amplification", "breaker"} {
		if !contains(a, want) {
			t.Fatalf("report missing %q:\n%s", want, a)
		}
	}
}

func contains(s, sub string) bool {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return true
		}
	}
	return false
}

// slowAnswerTransport answers correctly but only after ctx-aware delay,
// exercising the stale path's non-blocking property.
type slowAnswerTransport struct {
	inner resolver.Transport
	delay time.Duration
}

func (s *slowAnswerTransport) Exchange(q *dnswire.Message, tcp bool) (*dnswire.Message, time.Duration, error) {
	time.Sleep(s.delay)
	return s.inner.Exchange(q, tcp)
}

func (s *slowAnswerTransport) ExchangeContext(ctx context.Context, q *dnswire.Message, tcp bool, timeout time.Duration) (*dnswire.Message, time.Duration, error) {
	select {
	case <-time.After(s.delay):
	case <-ctx.Done():
		return nil, 0, ctx.Err()
	}
	return s.inner.Exchange(q, tcp)
}

func TestStaleServeDoesNotBlockOnSlowUpstream(t *testing.T) {
	f := newFixture(t)
	slow := &slowAnswerTransport{
		inner: &resolver.EngineTransport{Engine: f.engine, Client: stubAddr},
	}
	pool := NewPool(42, &Upstream{Name: "slow", Transport: slow})
	r := New(Config{
		Origin: "nl.", Seed: 42, Now: f.clk.Now,
		MaxTTL: 30 * time.Second, MaxStale: time.Hour,
	}, pool)
	sc := NewScratch()

	q := query(t, 1, "www.d5.nl.", dnswire.TypeA, 1232, false)
	r.HandleWire(q, nil, false, sc) // warm (no delay configured yet)
	f.clk.Advance(31 * time.Second)
	slow.delay = 2 * time.Second

	begin := time.Now()
	resp := r.HandleWire(query(t, 2, "www.d5.nl.", dnswire.TypeA, 1232, false), nil, false, sc)
	if resp == nil {
		t.Fatal("stale ask dropped")
	}
	if rc := dnswire.RCode(resp[3] & 0xF); rc != dnswire.RCodeNoError {
		t.Fatalf("stale rcode = %s", rc)
	}
	if took := time.Since(begin); took > time.Second {
		t.Fatalf("stale serve blocked %v on the slow refresh, want immediate", took)
	}
	if r.staleServed.Load() != 1 {
		t.Fatalf("staleServed = %d, want 1", r.staleServed.Load())
	}
	r.WaitRefreshes() // let the slow background refresh land
	if r.staleRefreshes.Load() != 1 {
		t.Fatalf("staleRefreshes = %d, want 1", r.staleRefreshes.Load())
	}
}
