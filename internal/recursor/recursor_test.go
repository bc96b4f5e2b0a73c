package recursor

import (
	"context"
	"errors"
	"net/netip"
	"strings"
	"testing"
	"time"

	"dnscentral/internal/authserver"
	"dnscentral/internal/dnswire"
	"dnscentral/internal/resolver"
	"dnscentral/internal/zonedb"
)

var stubAddr = netip.MustParseAddr("100.0.0.1")

type fixture struct {
	engine *authserver.Engine
	clk    *virtualClock
}

func newFixture(t testing.TB) *fixture {
	t.Helper()
	z, err := zonedb.NewCcTLD("nl", 1000, 0, 0.5, []string{"ns1.dns.nl", "ns2.dns.nl"})
	if err != nil {
		t.Fatal(err)
	}
	return &fixture{engine: authserver.NewEngine(z), clk: newClock()}
}

// recursor builds a two-upstream recursor ("cloudA", "cloudB") over the
// fixture engine.
func (f *fixture) recursor(cfg Config) *Recursor {
	cfg.Origin = "nl."
	cfg.Seed = 42
	cfg.Now = f.clk.Now
	pool := NewPool(cfg.Seed,
		&Upstream{Name: "cloudA", Transport: &resolver.EngineTransport{Engine: f.engine, Client: stubAddr}},
		&Upstream{Name: "cloudB", Transport: &resolver.EngineTransport{Engine: f.engine, Client: stubAddr}},
	)
	return New(cfg, pool)
}

// query packs a stub query; edns 0 means no OPT record.
func query(t testing.TB, id uint16, name string, qtype dnswire.Type, edns uint16, do bool) []byte {
	t.Helper()
	q := dnswire.NewQuery(id, name, qtype)
	if edns > 0 {
		q.WithEdns(edns, do)
	}
	wire, err := q.Pack()
	if err != nil {
		t.Fatal(err)
	}
	return wire
}

func upstreamQueries(r *Recursor) uint64 {
	var n uint64
	for i := 0; i < r.pool.Len(); i++ {
		n += r.pool.Upstream(i).queries.Load()
	}
	return n
}

func TestMissThenHit(t *testing.T) {
	f := newFixture(t)
	r := f.recursor(Config{})
	sc := NewScratch()

	q := query(t, 0x1234, "www.d5.nl.", dnswire.TypeA, 1232, false)
	resp := r.HandleWire(q, nil, false, sc)
	if resp == nil {
		t.Fatal("first query dropped")
	}
	m, err := dnswire.Unpack(resp)
	if err != nil {
		t.Fatalf("first response unparseable: %v", err)
	}
	if m.Header.ID != 0x1234 {
		t.Fatalf("ID = %#x, want 0x1234", m.Header.ID)
	}
	if !m.Header.Response || !m.Header.RecursionAvailable {
		t.Fatalf("header = %+v, want QR+RA", m.Header)
	}
	if m.Header.Authoritative {
		t.Fatal("AA must be cleared on recursive answers")
	}
	if m.Header.RCode != dnswire.RCodeNoError {
		t.Fatalf("rcode = %s", m.Header.RCode)
	}
	sent := upstreamQueries(r)
	if sent == 0 {
		t.Fatal("miss did not reach an upstream")
	}

	// Same question again: a pure cache hit, new stub ID patched in, no
	// new upstream traffic.
	q2 := query(t, 0x4321, "www.d5.nl.", dnswire.TypeA, 1232, false)
	resp2 := r.HandleWire(q2, nil, false, sc)
	m2, err := dnswire.Unpack(resp2)
	if err != nil {
		t.Fatal(err)
	}
	if m2.Header.ID != 0x4321 {
		t.Fatalf("hit ID = %#x, want 0x4321", m2.Header.ID)
	}
	if got := upstreamQueries(r); got != sent {
		t.Fatalf("cache hit sent upstream traffic: %d -> %d", sent, got)
	}
	st := r.Cache().Stats()
	if st.Hits != 1 || st.Misses != 1 {
		t.Fatalf("hits/misses = %d/%d, want 1/1", st.Hits, st.Misses)
	}
}

func TestCachedAnswerExpires(t *testing.T) {
	f := newFixture(t)
	r := f.recursor(Config{MaxTTL: 30 * time.Second})
	sc := NewScratch()
	q := query(t, 1, "www.d5.nl.", dnswire.TypeA, 1232, false)
	r.HandleWire(q, nil, false, sc)
	sent := upstreamQueries(r)
	f.clk.Advance(31 * time.Second)
	r.HandleWire(q, nil, false, sc)
	if got := upstreamQueries(r); got <= sent {
		t.Fatal("expired entry served without refill")
	}
	if st := r.Cache().Stats(); st.Stale != 1 {
		t.Fatalf("stale = %d, want 1", st.Stale)
	}
}

func TestPlainStubGetsNoOPT(t *testing.T) {
	f := newFixture(t)
	r := f.recursor(Config{})
	sc := NewScratch()
	// Prime via an EDNS stub, then serve the same answer to a plain one.
	r.HandleWire(query(t, 1, "www.d7.nl.", dnswire.TypeA, 1232, false), nil, false, sc)
	resp := r.HandleWire(query(t, 2, "www.d7.nl.", dnswire.TypeA, 0, false), nil, false, sc)
	m, err := dnswire.Unpack(resp)
	if err != nil {
		t.Fatal(err)
	}
	if m.Edns != nil {
		t.Fatal("OPT echoed to a stub that sent none (RFC 6891 violation)")
	}
	// And the EDNS variant still carries it.
	resp = r.HandleWire(query(t, 3, "www.d7.nl.", dnswire.TypeA, 1232, false), nil, false, sc)
	if m, err = dnswire.Unpack(resp); err != nil {
		t.Fatal(err)
	}
	if m.Edns == nil {
		t.Fatal("OPT missing for an EDNS stub")
	}
}

func TestNXDomainCachedAndAggressiveSynthesis(t *testing.T) {
	f := newFixture(t)
	r := f.recursor(Config{AggressiveNSEC: true})
	sc := NewScratch()

	resp := r.HandleWire(query(t, 1, "aaa-junk.nl.", dnswire.TypeA, 1232, true), nil, false, sc)
	m, err := dnswire.Unpack(resp)
	if err != nil {
		t.Fatal(err)
	}
	if m.Header.RCode != dnswire.RCodeNXDomain {
		t.Fatalf("rcode = %s, want NXDOMAIN", m.Header.RCode)
	}
	sent := upstreamQueries(r)

	// A different junk name covered by the learned NSEC range must be
	// denied without upstream traffic (RFC 8198).
	resp = r.HandleWire(query(t, 2, "aab-junk.nl.", dnswire.TypeA, 1232, true), nil, false, sc)
	if m, err = dnswire.Unpack(resp); err != nil {
		t.Fatal(err)
	}
	if m.Header.RCode != dnswire.RCodeNXDomain {
		t.Fatalf("synthesized rcode = %s, want NXDOMAIN", m.Header.RCode)
	}
	if m.Header.ID != 2 {
		t.Fatalf("synthesized ID = %d, want 2", m.Header.ID)
	}
	if got := upstreamQueries(r); got != sent {
		t.Fatalf("aggressive synthesis sent upstream traffic: %d -> %d", sent, got)
	}
	if r.aggressiveHits.Load() != 1 {
		t.Fatalf("aggressiveHits = %d, want 1", r.aggressiveHits.Load())
	}

	// Registered names must still resolve positively.
	resp = r.HandleWire(query(t, 3, "www.d5.nl.", dnswire.TypeA, 1232, true), nil, false, sc)
	if m, err = dnswire.Unpack(resp); err != nil {
		t.Fatal(err)
	}
	if m.Header.RCode != dnswire.RCodeNoError {
		t.Fatalf("registered name got %s", m.Header.RCode)
	}
}

func TestTruncationToStubBudget(t *testing.T) {
	f := newFixture(t)
	r := f.recursor(Config{})
	sc := NewScratch()
	q := query(t, 0xabcd, "www.d1.nl.", dnswire.TypeA, 0, false)

	// Plant an oversized cached answer: serveEntry only patches the
	// header and clips at QEnd, so padding past a valid header+question
	// exercises the truncation path without a fat zone.
	var v dnswire.View
	if err := v.Reset(q); err != nil {
		t.Fatal(err)
	}
	qEnd, err := v.QuestionEnd()
	if err != nil {
		t.Fatal(err)
	}
	fat := append(append([]byte{}, q...), make([]byte, 700)...)
	key := AppendKey(nil, []byte("www.d1.nl."), dnswire.TypeA, false)
	_, _, err = r.Cache().Do(key, func() (*Entry, error) {
		return &Entry{Wire: fat, Plain: fat, QEnd: qEnd,
			expires: f.clk.Now().Add(time.Hour)}, nil
	})
	if err != nil {
		t.Fatal(err)
	}

	// UDP, no EDNS: 512-byte budget forces TC and a clip at the question.
	resp := r.HandleWire(q, nil, false, sc)
	if len(resp) != qEnd {
		t.Fatalf("truncated length = %d, want %d", len(resp), qEnd)
	}
	if resp[2]&flagTC == 0 {
		t.Fatal("TC not set on truncated response")
	}
	if resp[0] != 0xab || resp[1] != 0xcd {
		t.Fatal("stub ID not patched on truncated response")
	}
	for i := 6; i < 12; i++ {
		if resp[i] != 0 {
			t.Fatalf("record counts not zeroed: header[%d]=%d", i, resp[i])
		}
	}
	if r.truncations.Load() != 1 {
		t.Fatalf("truncations = %d, want 1", r.truncations.Load())
	}

	// TCP: framing is the bound; the full fat answer flows.
	resp = r.HandleWire(q, nil, true, sc)
	if len(resp) != len(fat) {
		t.Fatalf("tcp length = %d, want %d", len(resp), len(fat))
	}
}

func TestMalformedAndNonQueryHandling(t *testing.T) {
	f := newFixture(t)
	r := f.recursor(Config{})
	sc := NewScratch()

	if r.HandleWire([]byte{1, 2, 3}, nil, false, sc) != nil {
		t.Fatal("short garbage must be dropped")
	}
	// A response packet must be dropped, not served (anti-spoofing).
	resp := query(t, 1, "www.d5.nl.", dnswire.TypeA, 0, false)
	resp[2] |= flagQR
	if r.HandleWire(resp, nil, false, sc) != nil {
		t.Fatal("response packet must be dropped")
	}
	if r.dropped.Load() != 2 {
		t.Fatalf("dropped = %d, want 2", r.dropped.Load())
	}

	// CHAOS class: refused.
	chaos := query(t, 2, "id.server.", dnswire.TypeTXT, 0, false)
	chaos[len(chaos)-1] = 3 // QCLASS CH
	out := r.HandleWire(chaos, nil, false, sc)
	if out == nil {
		t.Fatal("refused query must still get an answer")
	}
	if rc := dnswire.RCode(out[3] & 0xF); rc != dnswire.RCodeRefused {
		t.Fatalf("rcode = %s, want REFUSED", rc)
	}
}

// blockingTransport parks every exchange until its context dies,
// recording that cancellation arrived — the hedged loser.
type blockingTransport struct {
	cancelled chan struct{}
}

func (b *blockingTransport) Exchange(q *dnswire.Message, tcp bool) (*dnswire.Message, time.Duration, error) {
	return b.ExchangeContext(context.Background(), q, tcp, time.Minute)
}

func (b *blockingTransport) ExchangeContext(ctx context.Context, q *dnswire.Message, tcp bool, timeout time.Duration) (*dnswire.Message, time.Duration, error) {
	select {
	case <-ctx.Done():
		select {
		case b.cancelled <- struct{}{}:
		default:
		}
		return nil, 0, ctx.Err()
	case <-time.After(timeout):
		return nil, 0, errors.New("blockingTransport: timed out")
	}
}

func TestHedgeRacesAndCancelsLoser(t *testing.T) {
	f := newFixture(t)
	slow := &blockingTransport{cancelled: make(chan struct{}, 1)}
	slowUp := &Upstream{Name: "slow", Transport: slow}
	fastUp := &Upstream{Name: "fast", Transport: &resolver.EngineTransport{Engine: f.engine, Client: stubAddr}}
	// Seed the estimates so P2C picks the (about to stall) primary and
	// the hedge goes to the alternative.
	slowUp.observe(time.Millisecond)
	fastUp.observe(10 * time.Millisecond)
	r := New(Config{Origin: "nl.", HedgeDelay: 5 * time.Millisecond,
		UpstreamTimeout: 5 * time.Second, Now: f.clk.Now}, NewPool(1, slowUp, fastUp))
	sc := NewScratch()

	resp := r.HandleWire(query(t, 1, "www.d5.nl.", dnswire.TypeA, 1232, false), nil, false, sc)
	m, err := dnswire.Unpack(resp)
	if err != nil {
		t.Fatal(err)
	}
	if m.Header.RCode != dnswire.RCodeNoError {
		t.Fatalf("hedged answer rcode = %s", m.Header.RCode)
	}
	if r.hedges.Load() != 1 || r.hedgeWins.Load() != 1 {
		t.Fatalf("hedges/wins = %d/%d, want 1/1", r.hedges.Load(), r.hedgeWins.Load())
	}
	select {
	case <-slow.cancelled:
	case <-time.After(2 * time.Second):
		t.Fatal("losing exchange was never cancelled")
	}
	// The cancelled loser is no failure signal: its EWMA keeps its seed.
	if slowUp.failures.Load() != 0 {
		t.Fatalf("cancelled loser counted as failure: %d", slowUp.failures.Load())
	}
}

// failingTransport errors instantly.
type failingTransport struct{}

func (failingTransport) Exchange(*dnswire.Message, bool) (*dnswire.Message, time.Duration, error) {
	return nil, 0, errors.New("connection refused")
}

func TestFailoverOnPrimaryError(t *testing.T) {
	f := newFixture(t)
	deadUp := &Upstream{Name: "dead", Transport: failingTransport{}}
	liveUp := &Upstream{Name: "live", Transport: &resolver.EngineTransport{Engine: f.engine, Client: stubAddr}}
	deadUp.observe(time.Millisecond) // P2C prefers the dead one first
	liveUp.observe(10 * time.Millisecond)
	r := New(Config{Origin: "nl.", Now: f.clk.Now}, NewPool(1, deadUp, liveUp))
	sc := NewScratch()

	resp := r.HandleWire(query(t, 1, "www.d5.nl.", dnswire.TypeA, 1232, false), nil, false, sc)
	m, err := dnswire.Unpack(resp)
	if err != nil {
		t.Fatal(err)
	}
	if m.Header.RCode != dnswire.RCodeNoError {
		t.Fatalf("failover answer rcode = %s", m.Header.RCode)
	}
	if r.failovers.Load() != 1 {
		t.Fatalf("failovers = %d, want 1", r.failovers.Load())
	}
	if deadUp.failures.Load() != 1 {
		t.Fatalf("dead upstream failures = %d, want 1", deadUp.failures.Load())
	}
	if deadUp.EWMA() < 100*time.Millisecond {
		t.Fatalf("failure penalty not applied: EWMA = %v", deadUp.EWMA())
	}
}

func TestAllUpstreamsDownYieldsServfail(t *testing.T) {
	f := newFixture(t)
	r := New(Config{Origin: "nl.", Now: f.clk.Now},
		NewPool(1, &Upstream{Name: "dead", Transport: failingTransport{}}))
	sc := NewScratch()
	resp := r.HandleWire(query(t, 7, "www.d5.nl.", dnswire.TypeA, 1232, false), nil, false, sc)
	if resp == nil {
		t.Fatal("dead upstreams must still produce an answer")
	}
	if rc := dnswire.RCode(resp[3] & 0xF); rc != dnswire.RCodeServFail {
		t.Fatalf("rcode = %s, want SERVFAIL", rc)
	}
	if resp[0] != 0 || resp[1] != 7 {
		t.Fatal("SERVFAIL did not echo the stub ID")
	}
	if r.servfails.Load() != 1 {
		t.Fatalf("servfails = %d, want 1", r.servfails.Load())
	}
	// Failures are not cached: the next ask tries upstream again.
	before := r.pool.Upstream(0).queries.Load()
	r.HandleWire(query(t, 8, "www.d5.nl.", dnswire.TypeA, 1232, false), nil, false, sc)
	if r.pool.Upstream(0).queries.Load() == before {
		t.Fatal("SERVFAIL was cached")
	}
}

func TestReportSharesAndHHI(t *testing.T) {
	f := newFixture(t)
	r := f.recursor(Config{})
	sc := NewScratch()
	// A skewed workload: one hot name asked 50 times, a tail of 10.
	for i := 0; i < 50; i++ {
		r.HandleWire(query(t, uint16(i), "www.d1.nl.", dnswire.TypeA, 1232, false), nil, false, sc)
	}
	for i := 0; i < 10; i++ {
		name := "www.d" + string(rune('2'+i%8)) + ".nl."
		r.HandleWire(query(t, uint16(100+i), name, dnswire.TypeA, 1232, false), nil, false, sc)
	}
	rep := r.Report()
	if rep.StubQueries != 60 {
		t.Fatalf("stub queries = %d, want 60", rep.StubQueries)
	}
	if rep.HitRate() < 0.8 {
		t.Fatalf("hit rate = %v, want > 0.8 on the hot-name workload", rep.HitRate())
	}
	var upSum uint64
	var stubSum uint64
	var upFrac float64
	for _, p := range rep.Providers {
		upSum += p.UpstreamQueries
		stubSum += p.StubAnswers
		upFrac += p.UpstreamShare
	}
	if upSum == 0 || stubSum != 60 {
		t.Fatalf("share totals: upstream=%d stub=%d (want stub 60)", upSum, stubSum)
	}
	if upFrac < 0.999 || upFrac > 1.001 {
		t.Fatalf("upstream fractions sum to %v", upFrac)
	}
	if rep.UpstreamHHI <= 0 || rep.UpstreamHHI > 1 || rep.StubHHI <= 0 || rep.StubHHI > 1 {
		t.Fatalf("HHI out of range: upstream=%v stub=%v", rep.UpstreamHHI, rep.StubHHI)
	}
	out := rep.Format()
	for _, want := range []string{"provider shares", "cloudA", "HHI", "hit rate"} {
		if !strings.Contains(out, want) {
			t.Fatalf("report missing %q:\n%s", want, out)
		}
	}
}
