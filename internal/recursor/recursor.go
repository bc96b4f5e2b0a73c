package recursor

import (
	"context"
	"errors"
	"net/netip"
	"sync"
	"sync/atomic"
	"time"

	"dnscentral/internal/dnswire"
	"dnscentral/internal/resolver"
	"dnscentral/internal/telemetry"
)

// Config shapes the recursor tier.
type Config struct {
	// Origin is the zone the upstreams are authoritative for; it scopes
	// the RFC 8198 aggressive-NSEC cache and the flood guard's per-zone
	// accounting.
	Origin string
	// CacheEntries bounds the answer cache (default 65536).
	CacheEntries int
	// CacheShards is the lock-sharding factor, rounded up to a power of
	// two (default 16).
	CacheShards int
	// EDNSSize is the EDNS(0) size advertised on upstream queries
	// (default 1232, the DNS-flag-day value; 0 disables upstream EDNS).
	EDNSSize uint16
	// UpstreamTimeout bounds each upstream exchange (default 3s).
	UpstreamTimeout time.Duration
	// HedgeDelay is how long a fill waits on the primary upstream
	// before racing a second query against the best alternative; the
	// first answer wins and the loser is cancelled. 0 disables latency
	// hedging (failure-triggered failover stays on).
	HedgeDelay time.Duration
	// MinTTL/MaxTTL clamp cache lifetimes (defaults 1s and 1h).
	MinTTL, MaxTTL time.Duration
	// AggressiveNSEC enables RFC 8198 synthesis: NSEC ranges learned
	// from DO-bit NXDOMAIN answers deny other covered names without an
	// upstream query.
	AggressiveNSEC bool
	// MaxStale is the RFC 8767 serve-stale window: expired entries stay
	// retrievable this long past expiry and are served — TTLs clamped
	// to StaleTTL — while an asynchronous refresh repopulates them, so
	// an upstream outage browns out gracefully instead of going dark.
	// 0 disables serve-stale entirely.
	MaxStale time.Duration
	// StaleTTL is the TTL clamp on served stale answers (default 30s,
	// the RFC 8767 recommendation: long enough to damp retry storms,
	// short enough that stubs re-ask soon after recovery).
	StaleTTL time.Duration
	// FailTTL is the negative failure-cache window (RFC 2308 §7 style):
	// after a fill fails, repeat misses for the same key inside the
	// window are answered from stale (or SERVFAIL) without touching the
	// upstream path, absorbing miss storms during an outage. 0 disables.
	FailTTL time.Duration
	// Breaker arms a per-upstream circuit breaker (Failures 0 disables):
	// consecutive failures open it, fills fast-fail past it, and a
	// half-open probe re-admits the upstream when it recovers.
	Breaker BreakerConfig
	// UseCookies round-trips RFC 7873 DNS cookies on upstream queries
	// (one jar per upstream), earning the RRL exemption cookie-validating
	// authservers grant proven-source clients.
	UseCookies bool
	// RRL is the stub-facing per-client-IP token-bucket rate limit
	// (RatePerSec 0 disables). UDP only; TCP proves the source address.
	RRL RRLConfig
	// Flood is the random-subdomain (water-torture) guard: zones whose
	// NXDOMAIN-miss rate crosses the threshold get their misses REFUSED
	// at the front door, upstream shielded (NXPerSec 0 disables).
	Flood FloodConfig
	// Seed fixes the P2C and cookie randomness for reproducible runs.
	Seed int64
	// Now is the cache clock (default time.Now); tests inject a
	// virtual clock to step TTLs deterministically.
	Now func() time.Time
	// Telemetry, when set, publishes the recursor_* metric families.
	Telemetry *telemetry.Registry
}

func (c Config) withDefaults() Config {
	if c.CacheEntries <= 0 {
		c.CacheEntries = 1 << 16
	}
	if c.CacheShards <= 0 {
		c.CacheShards = 16
	}
	if c.EDNSSize == 0 {
		c.EDNSSize = 1232
	}
	if c.UpstreamTimeout <= 0 {
		c.UpstreamTimeout = 3 * time.Second
	}
	if c.MinTTL <= 0 {
		c.MinTTL = time.Second
	}
	if c.MaxTTL <= 0 {
		c.MaxTTL = time.Hour
	}
	if c.StaleTTL <= 0 {
		c.StaleTTL = 30 * time.Second
	}
	if c.Now == nil {
		c.Now = time.Now
	}
	return c
}

// ErrNoUpstream is returned when every upstream attempt failed.
var ErrNoUpstream = errors.New("recursor: all upstream attempts failed")

// ErrBreakerOpen is returned when every upstream's circuit breaker
// refused the exchange — the fill fast-fails without wire traffic.
var ErrBreakerOpen = errors.New("recursor: all upstream breakers open")

// Recursor answers stub queries from the sharded cache, filling misses
// through the upstream pool with singleflight collapsing and hedged
// racing. The wire-level serve path (HandleWire) is allocation-free on
// cache hits. With MaxStale set it degrades gracefully through an
// upstream outage: expired entries are served stale (RFC 8767) while
// breakers hold the dead upstream to a probe trickle.
type Recursor struct {
	cfg   Config
	cache *Cache
	pool  *Pool
	nsec  *resolver.NSECCache
	rrl   *rateLimiter
	flood *floodGuard

	nextID    atomic.Uint32
	refreshWG sync.WaitGroup

	stubQueries      atomic.Uint64
	aggressiveHits   atomic.Uint64
	truncations      atomic.Uint64
	hedges           atomic.Uint64
	hedgeWins        atomic.Uint64
	failovers        atomic.Uint64
	tcpFallbacks     atomic.Uint64
	servfails        atomic.Uint64
	dropped          atomic.Uint64
	refused          atomic.Uint64
	staleServed      atomic.Uint64
	staleRefreshes   atomic.Uint64
	breakerFastFails atomic.Uint64
	rrlDrops         atomic.Uint64
	rrlSlips         atomic.Uint64
	floodRefused     atomic.Uint64

	latency *telemetry.Histogram
}

// New builds a recursor over the pool. The pool must hold ≥1 upstream.
func New(cfg Config, pool *Pool) *Recursor {
	cfg = cfg.withDefaults()
	r := &Recursor{
		cfg: cfg,
		cache: NewCache(CacheConfig{
			MaxEntries: cfg.CacheEntries,
			Shards:     cfg.CacheShards,
			MaxStale:   cfg.MaxStale,
			FailTTL:    cfg.FailTTL,
			TTLFloor:   cfg.MinTTL,
			TTLCap:     cfg.MaxTTL,
			Now:        cfg.Now,
		}),
		pool:  pool,
		nsec:  resolver.NewNSECCache(cfg.Origin),
		rrl:   newRateLimiter(cfg.RRL, cfg.Now),
		flood: newFloodGuard(cfg.Flood, cfg.Now),
	}
	pool.armBreakers(cfg.Breaker)
	if cfg.UseCookies {
		for i := 0; i < pool.Len(); i++ {
			pool.Upstream(i).jar = resolver.NewCookieJar(cfg.Seed + int64(i) + 1)
		}
	}
	r.register(cfg.Telemetry)
	return r
}

// register exposes the live metric families; all readers are
// exposition-time CounterFunc/GaugeFunc over the atomics the hot path
// already maintains, so telemetry adds zero work per query.
func (r *Recursor) register(reg *telemetry.Registry) {
	r.latency = reg.Histogram("recursor_answer_seconds")
	if reg == nil {
		return
	}
	reg.CounterFunc("recursor_stub_queries_total", r.stubQueries.Load)
	reg.CounterFunc("recursor_cache_hits_total", r.cache.hits.Load)
	reg.CounterFunc("recursor_cache_misses_total", r.cache.misses.Load)
	reg.CounterFunc("recursor_cache_stale_total", r.cache.stale.Load)
	reg.CounterFunc("recursor_cache_evictions_total", r.cache.evictions.Load)
	reg.CounterFunc("recursor_cache_locked_gets_total", r.cache.lockedGets.Load)
	reg.CounterFunc("recursor_singleflight_shared_total", r.cache.sfShared.Load)
	reg.CounterFunc("recursor_aggressive_hits_total", r.aggressiveHits.Load)
	reg.CounterFunc("recursor_truncated_total", r.truncations.Load)
	reg.CounterFunc("recursor_hedges_total", r.hedges.Load)
	reg.CounterFunc("recursor_hedge_wins_total", r.hedgeWins.Load)
	reg.CounterFunc("recursor_failovers_total", r.failovers.Load)
	reg.CounterFunc("recursor_upstream_tcp_fallbacks_total", r.tcpFallbacks.Load)
	reg.CounterFunc("recursor_servfail_total", r.servfails.Load)
	reg.CounterFunc("recursor_dropped_total", r.dropped.Load)
	reg.CounterFunc("recursor_stale_served_total", r.staleServed.Load)
	reg.CounterFunc("recursor_stale_refreshes_total", r.staleRefreshes.Load)
	reg.CounterFunc("recursor_fail_cache_marks_total", r.cache.failMarks.Load)
	reg.CounterFunc("recursor_fail_cache_hits_total", r.cache.failHits.Load)
	reg.CounterFunc("recursor_breaker_fastfails_total", r.breakerFastFails.Load)
	reg.CounterFunc("recursor_rrl_drops_total", r.rrlDrops.Load)
	reg.CounterFunc("recursor_rrl_slips_total", r.rrlSlips.Load)
	reg.CounterFunc("recursor_flood_refused_total", r.floodRefused.Load)
	reg.GaugeFunc("recursor_cache_entries", func() int64 { return int64(r.cache.Len()) })
	for i := 0; i < r.pool.Len(); i++ {
		u := r.pool.Upstream(i)
		reg.CounterFunc(`recursor_upstream_queries_total{upstream="`+u.Name+`"}`, u.queries.Load)
		reg.CounterFunc(`recursor_upstream_failures_total{upstream="`+u.Name+`"}`, u.failures.Load)
		reg.CounterFunc(`recursor_breaker_opens_total{upstream="`+u.Name+`"}`, u.BreakerOpens)
		reg.GaugeFunc(`recursor_breaker_state{upstream="`+u.Name+`"}`, func() int64 {
			return int64(u.BreakerState())
		})
		reg.GaugeFunc(`recursor_upstream_ewma_rtt_us{upstream="`+u.Name+`"}`, func() int64 {
			return int64(u.EWMA() / time.Microsecond)
		})
	}
}

// Cache exposes the answer cache (stats, tests).
func (r *Recursor) Cache() *Cache { return r.cache }

// WaitRefreshes blocks until every in-flight asynchronous stale refresh
// has completed — tests and shutdown paths use it to make serve-stale
// outcomes deterministic.
func (r *Recursor) WaitRefreshes() { r.refreshWG.Wait() }

// AdmitStub applies the front-line per-client rate limit for one UDP
// datagram, before any parsing. TCP is exempt: completing the handshake
// already proves the source address, which is the spoofing RRL defends
// against.
func (r *Recursor) AdmitStub(client netip.Addr) RRLVerdict {
	if r.rrl == nil {
		return RRLPass
	}
	v := r.rrl.admit(client)
	switch v {
	case RRLSlip:
		r.rrlSlips.Add(1)
	case RRLDrop:
		r.rrlDrops.Add(1)
	}
	return v
}

// SlipResponse builds the RRL slip answer for query into dst: a minimal
// TC=1 header that invites a legitimate stub to retry over TCP while
// staying smaller than the query — negative amplification. Returns nil
// when the datagram is not even a plausible query.
func (r *Recursor) SlipResponse(query, dst []byte) []byte {
	if len(query) < dnswire.HeaderLen || query[2]&flagQR != 0 {
		return nil
	}
	dst = append(dst, query[:dnswire.HeaderLen]...)
	dst[2] = dst[2]&(0x78|flagRD) | flagQR | flagTC
	dst[3] = flagRA
	for i := 4; i < 12; i++ {
		dst[i] = 0
	}
	return dst
}

// Scratch is the per-goroutine reusable state of the serve path: the
// lazy View and the qname/key buffers. One Scratch per serving
// goroutine keeps HandleWire allocation-free.
type Scratch struct {
	view dnswire.View
	name []byte
	key  []byte
}

// NewScratch allocates the reusable buffers once. 256 covers the
// 255-octet wire-name bound plus the key's type and DO suffix.
func NewScratch() *Scratch {
	return &Scratch{
		name: make([]byte, 0, 256),
		key:  make([]byte, 0, 260),
	}
}

// Header flag bits (byte offsets 2 and 3 of the wire header).
const (
	flagQR = 0x80 // byte 2
	flagAA = 0x04 // byte 2
	flagTC = 0x02 // byte 2
	flagRD = 0x01 // byte 2
	flagRA = 0x80 // byte 3
)

// HandleWire answers one stub query: query is the raw message, dst the
// reusable output buffer the response is built in (it must be empty —
// pass buf[:0]; header patching addresses absolute offsets), tcp
// whether the stub arrived over TCP. Returns nil when the datagram must
// be dropped (unparseable, or a response packet). Cache hits run start
// to finish without allocating.
func (r *Recursor) HandleWire(query []byte, dst []byte, tcp bool, sc *Scratch) []byte {
	start := time.Now()
	if sc.view.Reset(query) != nil || sc.view.Response() {
		r.dropped.Add(1)
		return nil
	}
	r.stubQueries.Add(1)
	if sc.view.Opcode() != dnswire.OpcodeQuery {
		return r.headerError(query, dst, dnswire.RCodeNotImp)
	}
	var qtype dnswire.Type
	var qclass dnswire.Class
	var err error
	sc.name, qtype, qclass, err = sc.view.Question(sc.name[:0])
	if err != nil {
		return r.headerError(query, dst, dnswire.RCodeFormErr)
	}
	if qclass != dnswire.ClassIN {
		r.refused.Add(1)
		return r.headerError(query, dst, dnswire.RCodeRefused)
	}
	ednsInfo, hasEDNS, err := sc.view.EDNS()
	if err != nil {
		return r.headerError(query, dst, dnswire.RCodeFormErr)
	}
	do := hasEDNS && ednsInfo.DO
	budget := 1 << 16 // TCP: framing is the only bound
	if !tcp {
		budget = 512
		if hasEDNS && int(ednsInfo.UDPSize) > budget {
			budget = int(ednsInfo.UDPSize)
		}
	}
	sc.key = AppendKey(sc.key[:0], sc.name, qtype, do)

	if e := r.cache.Get(sc.key); e != nil {
		r.pool.Upstream(e.Upstream).answers.Add(1)
		dst = r.serveEntry(query, dst, e, hasEDNS, budget)
		r.latency.Observe(time.Since(start))
		return dst
	}

	// Miss. RFC 8198: a cached NSEC range covering the name lets us
	// synthesize the NXDOMAIN without any upstream traffic.
	qname := string(sc.name)
	if r.cfg.AggressiveNSEC && do && r.nsec.Covers(qname, r.cfg.Now()) {
		r.aggressiveHits.Add(1)
		dst = r.synthesize(query, dst, dnswire.RCodeNXDomain)
		r.latency.Observe(time.Since(start))
		return dst
	}

	// Water-torture guard: a zone drowning in NXDOMAIN misses gets its
	// further misses REFUSED at the front door (cache hits above still
	// serve — the flood only poisons the miss path).
	if r.flood != nil && !r.flood.admitMiss(parentZone(qname, r.cfg.Origin)) {
		r.floodRefused.Add(1)
		dst = r.headerError(query, dst, dnswire.RCodeRefused)
		r.latency.Observe(time.Since(start))
		return dst
	}

	// Failure cache: the upstream path failed for this key moments ago;
	// answer from stale data (or SERVFAIL) without re-asking.
	if r.cache.FailedRecently(sc.key) {
		if e := r.cache.GetStale(sc.key); e != nil {
			r.pool.Upstream(e.Upstream).answers.Add(1)
			dst = r.serveStale(query, dst, e, hasEDNS, budget)
		} else {
			r.servfails.Add(1)
			dst = r.synthesize(query, dst, dnswire.RCodeServFail)
		}
		r.latency.Observe(time.Since(start))
		return dst
	}

	// Serve-stale (RFC 8767): an expired-but-retained answer is served
	// immediately with clamped TTLs while a background singleflight
	// refresh tries to repopulate the entry. During an outage the
	// refresh fails fast (breaker) or marks the failure cache, so the
	// stub-facing path never blocks on a dead upstream.
	if e := r.cache.GetStale(sc.key); e != nil {
		r.pool.Upstream(e.Upstream).answers.Add(1)
		dst = r.serveStale(query, dst, e, hasEDNS, budget)
		r.asyncRefresh(sc.key, qname, qtype, do)
		r.latency.Observe(time.Since(start))
		return dst
	}

	// Cold miss: block on the (singleflight-collapsed) fill.
	// Do reads sc.key only before running fill (its inflight and map
	// keys are string copies), so the scratch can be passed directly.
	e, _, err := r.cache.Do(sc.key, func() (*Entry, error) {
		return r.fill(qname, qtype, do)
	})
	if err != nil || (e != nil && e.RCode == dnswire.RCodeServFail && !e.Cacheable()) {
		// The fill could not produce a usable answer; stale data that
		// landed in the window since the checks above is still better
		// than surfacing the failure.
		if se := r.cache.GetStale(sc.key); se != nil {
			r.pool.Upstream(se.Upstream).answers.Add(1)
			dst = r.serveStale(query, dst, se, hasEDNS, budget)
			r.latency.Observe(time.Since(start))
			return dst
		}
	}
	if err != nil {
		r.servfails.Add(1)
		dst = r.synthesize(query, dst, dnswire.RCodeServFail)
		r.latency.Observe(time.Since(start))
		return dst
	}
	r.pool.Upstream(e.Upstream).answers.Add(1)
	dst = r.serveEntry(query, dst, e, hasEDNS, budget)
	r.latency.Observe(time.Since(start))
	return dst
}

// asyncRefresh launches the background half of serve-stale: one
// goroutine per key (the Inflight pre-check plus Refresh's singleflight
// slot collapse duplicates) re-running the fill. The key is copied out
// of the caller's scratch, which is reused the moment HandleWire
// returns.
func (r *Recursor) asyncRefresh(key []byte, qname string, qtype dnswire.Type, do bool) {
	if r.cache.Inflight(key) {
		return
	}
	k := append([]byte(nil), key...)
	r.refreshWG.Add(1)
	go func() {
		defer r.refreshWG.Done()
		if r.cache.Refresh(k, func() (*Entry, error) {
			return r.fill(qname, qtype, do)
		}) {
			r.staleRefreshes.Add(1)
		}
	}()
}

// serveEntry copies the right cached variant into dst and patches it
// for this stub: the stub's ID over the zeroed bytes, AA cleared, RA
// set, RD echoed, and TC truncation when the answer exceeds the stub's
// UDP budget.
func (r *Recursor) serveEntry(query, dst []byte, e *Entry, hasEDNS bool, budget int) []byte {
	w := e.Wire
	if !hasEDNS {
		w = e.Plain
	}
	dst = append(dst, w...)
	dst[0], dst[1] = query[0], query[1]
	dst[2] = dst[2]&^(flagAA|flagRD) | query[2]&flagRD
	dst[3] |= flagRA
	if len(dst) > budget {
		// Clip at the question boundary and signal TC; the stub
		// re-asks over TCP where the full answer fits.
		r.truncations.Add(1)
		dst = dst[:e.QEnd]
		dst[2] |= flagTC
		dst[6], dst[7] = 0, 0 // ANCOUNT
		dst[8], dst[9] = 0, 0 // NSCOUNT
		dst[10], dst[11] = 0, 0
	}
	return dst
}

// serveStale serves a retained expired entry: the normal patching plus
// the RFC 8767 TTL clamp, applied in place through the precomputed
// offsets so stale serving stays allocation-free too.
func (r *Recursor) serveStale(query, dst []byte, e *Entry, hasEDNS bool, budget int) []byte {
	dst = r.serveEntry(query, dst, e, hasEDNS, budget)
	offs := e.TTLOffs
	if !hasEDNS {
		offs = e.PlainTTLOffs
	}
	clampTTLs(dst, offs, uint32(r.cfg.StaleTTL/time.Second))
	r.staleServed.Add(1)
	return dst
}

// synthesize builds a minimal answer (header + echoed question) with
// the given RCODE — used for RFC 8198 denials and SERVFAIL surfacing.
func (r *Recursor) synthesize(query, dst []byte, rcode dnswire.RCode) []byte {
	qEnd, err := r.scratchQuestionEnd(query)
	if err != nil {
		return r.headerError(query, dst, rcode)
	}
	dst = append(dst, query[:qEnd]...)
	dst[2] = dst[2]&(0x78|flagRD) | flagQR
	dst[3] = flagRA | byte(rcode&0xF)
	dst[4], dst[5] = 0, 1 // QDCOUNT = 1
	dst[6], dst[7] = 0, 0
	dst[8], dst[9] = 0, 0
	dst[10], dst[11] = 0, 0
	return dst
}

// scratchQuestionEnd re-walks the query for its question boundary; the
// serve path's View already validated it, so errors are rare.
func (r *Recursor) scratchQuestionEnd(query []byte) (int, error) {
	var v dnswire.View
	if err := v.Reset(query); err != nil {
		return 0, err
	}
	return v.QuestionEnd()
}

// headerError answers with a bare 12-byte header carrying rcode.
func (r *Recursor) headerError(query, dst []byte, rcode dnswire.RCode) []byte {
	dst = append(dst, query[:dnswire.HeaderLen]...)
	dst[2] = dst[2]&(0x78|flagRD) | flagQR
	dst[3] = flagRA | byte(rcode&0xF)
	for i := 4; i < 12; i++ {
		dst[i] = 0
	}
	return dst
}

// fill resolves one miss through the upstream pool and builds the cache
// entry. Runs once per key under singleflight, so allocations here are
// amortized across every collapsed waiter.
func (r *Recursor) fill(qname string, qtype dnswire.Type, do bool) (*Entry, error) {
	id := uint16(r.nextID.Add(1))
	q := dnswire.NewQuery(id, qname, qtype)
	if r.cfg.EDNSSize > 0 {
		q.WithEdns(r.cfg.EDNSSize, do)
	}
	resp, upIdx, err := r.exchangeHedged(q)
	if err != nil {
		return nil, err
	}
	now := r.cfg.Now()
	resp.Header.ID = 0 // serve path patches the stub's ID in
	wire, err := resp.Pack()
	if err != nil {
		return nil, err
	}
	plain := wire
	if resp.Edns != nil {
		saved := resp.Edns
		resp.Edns = nil
		plain, err = resp.Pack()
		resp.Edns = saved
		if err != nil {
			return nil, err
		}
	}
	qEnd := dnswire.HeaderLen
	var v dnswire.View
	if v.Reset(wire) == nil {
		if end, err := v.QuestionEnd(); err == nil {
			qEnd = end
		}
	}
	e := &Entry{
		Wire:     wire,
		Plain:    plain,
		QEnd:     qEnd,
		RCode:    resp.Header.RCode,
		Upstream: upIdx,
	}
	if r.cfg.MaxStale > 0 {
		// Precompute the TTL patch points once per fill so every later
		// stale serve is a few in-place writes.
		e.TTLOffs = ttlOffsets(wire)
		if resp.Edns != nil {
			e.PlainTTLOffs = ttlOffsets(plain)
		} else {
			e.PlainTTLOffs = e.TTLOffs
		}
	}
	if resp.Header.RCode == dnswire.RCodeServFail {
		// Browned-out answers are surfaced but never cached.
		r.servfails.Add(1)
		return e, nil
	}
	e.expires = now.Add(r.ttlOf(resp))
	if resp.Header.RCode == dnswire.RCodeNXDomain {
		if r.flood != nil {
			r.flood.noteNXDomain(parentZone(qname, r.cfg.Origin))
		}
		if r.cfg.AggressiveNSEC && do {
			r.nsec.Remember(resp, e.expires)
		}
	}
	return e, nil
}

// ttlOf extracts the caching TTL of a response: minimum RR TTL across
// answer and authority (the SOA MINIMUM capping negative answers per
// RFC 2308), clamped to [MinTTL, MaxTTL].
func (r *Recursor) ttlOf(m *dnswire.Message) time.Duration {
	best := uint32(r.cfg.MaxTTL / time.Second)
	scan := func(rrs []dnswire.RR) {
		for _, rr := range rrs {
			if rr.TTL < best {
				best = rr.TTL
			}
			if soa, ok := rr.Data.(dnswire.SOAData); ok && soa.Minimum < best {
				best = soa.Minimum
			}
		}
	}
	scan(m.Answers)
	scan(m.Authority)
	ttl := time.Duration(best) * time.Second
	if ttl < r.cfg.MinTTL {
		ttl = r.cfg.MinTTL
	}
	if ttl > r.cfg.MaxTTL {
		ttl = r.cfg.MaxTTL
	}
	return ttl
}

// exchangeHedged resolves one upstream exchange with tail-latency
// hedging: the P2C-picked primary gets HedgeDelay to answer before a
// second query races against the best alternative; the first answer
// wins and cancels the loser. A primary that fails outright triggers
// the second attempt immediately (failover), with or without hedging.
// When every upstream's breaker refuses the exchange it fast-fails
// with ErrBreakerOpen — no wire traffic, no timeout wait.
func (r *Recursor) exchangeHedged(q *dnswire.Message) (*dnswire.Message, int, error) {
	primary, pi := r.pool.Pick(r.cfg.Now())
	if primary == nil {
		r.breakerFastFails.Add(1)
		return nil, -1, ErrBreakerOpen
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	type outcome struct {
		m   *dnswire.Message
		idx int
		err error
	}
	ch := make(chan outcome, 2)
	launch := func(u *Upstream, idx int) {
		go func() {
			m, err := r.exchangeOne(ctx, u, q)
			ch <- outcome{m, idx, err}
		}()
	}
	launch(primary, pi)
	outstanding, second := 1, false

	var timerC <-chan time.Time
	if r.cfg.HedgeDelay > 0 && r.pool.Len() > 1 {
		t := time.NewTimer(r.cfg.HedgeDelay)
		defer t.Stop()
		timerC = t.C
	}
	launchSecond := func(hedge bool) {
		if second {
			return
		}
		u, idx := r.pool.PickOther(pi, r.cfg.Now())
		if u == nil {
			return
		}
		second = true
		outstanding++
		if hedge {
			r.hedges.Add(1)
		} else {
			r.failovers.Add(1)
		}
		launch(u, idx)
	}

	var firstErr error
	for {
		select {
		case o := <-ch:
			outstanding--
			if o.err == nil {
				if second && o.idx != pi {
					r.hedgeWins.Add(1)
				}
				cancel() // tear the loser down before returning
				return o.m, o.idx, nil
			}
			if firstErr == nil {
				firstErr = o.err
			}
			if !second && r.pool.Len() > 1 {
				launchSecond(false)
				continue
			}
			if outstanding == 0 {
				if firstErr == nil {
					firstErr = ErrNoUpstream
				}
				return nil, -1, firstErr
			}
		case <-timerC:
			timerC = nil
			launchSecond(true)
		}
	}
}

// exchangeOne performs a single upstream exchange including the TC→TCP
// escalation, maintaining the EWMA estimate and the circuit breaker:
// successes feed measured RTTs and close the breaker, failures charge
// the penalty and grow the streak — except cancelled losers, which
// carry no signal about the upstream and only release the probe slot.
// An upstream answering SERVFAIL counts as a breaker failure (the
// server is up but not serving) without distorting the RTT estimate.
func (r *Recursor) exchangeOne(ctx context.Context, u *Upstream, q *dnswire.Message) (*dnswire.Message, error) {
	if u.jar != nil && q.Edns != nil {
		// Shallow-copy the message and OPT so this upstream's COOKIE
		// option never rides along to another upstream (server cookies
		// are bound to the issuing server, RFC 7873 §5.2).
		qc := *q
		edns := *q.Edns
		edns.Options = append([]dnswire.EDNSOption(nil), q.Edns.Options...)
		qc.Edns = &edns
		u.jar.Attach(&qc)
		q = &qc
	}
	fail := func(err error) (*dnswire.Message, error) {
		if ctx.Err() != nil {
			if u.br != nil {
				u.br.onCancel()
			}
			return nil, err
		}
		u.failures.Add(1)
		u.penalize()
		if u.br != nil {
			u.br.onFailure(r.cfg.Now())
		}
		return nil, err
	}
	u.queries.Add(1)
	resp, rtt, err := resolver.ExchangeContext(ctx, u.Transport, q, false, r.cfg.UpstreamTimeout)
	if err != nil {
		return fail(err)
	}
	u.observe(rtt)
	if resp.Header.Truncated {
		r.tcpFallbacks.Add(1)
		u.queries.Add(1)
		resp, rtt, err = resolver.ExchangeContext(ctx, u.Transport, q, true, r.cfg.UpstreamTimeout)
		if err != nil {
			return fail(err)
		}
		u.observe(rtt)
	}
	if u.br != nil {
		if resp.Header.RCode == dnswire.RCodeServFail {
			u.br.onFailure(r.cfg.Now())
		} else {
			u.br.onSuccess()
		}
	}
	if u.jar != nil {
		u.jar.Learn(resp)
	}
	return resp, nil
}
