// Package resolver implements the client side of the paper's measured
// traffic: a caching recursive resolver as seen from a TLD/root
// authoritative server. It models exactly the behaviors the paper
// attributes to cloud resolvers:
//
//   - QNAME minimization (RFC 7816): NS queries for names "one label more
//     than the zone" walked down until the delegation is found (§4.2.1);
//   - DNSSEC validation: DS queries per delegation and periodic DNSKEY
//     queries for the zone apex (§4.2.2);
//   - EDNS(0) buffer sizes driving truncation and TCP retry (§4.4);
//   - dual-stack IPv4/IPv6 upstream choice informed by measured RTT
//     (§4.3, following Müller et al.'s "Recursives in the Wild");
//   - TTL caching, so only cache misses reach the authoritative server.
package resolver

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"dnscentral/internal/dnswire"
	"dnscentral/internal/telemetry"
)

// Family selects the IP family of an upstream exchange.
type Family int

// Families.
const (
	FamilyV4 Family = 4
	FamilyV6 Family = 6
)

// String names the family.
func (f Family) String() string {
	if f == FamilyV6 {
		return "IPv6"
	}
	return "IPv4"
}

// Transport performs one DNS exchange with the authoritative server and
// reports how long it took (the RTT signal for family preference).
type Transport interface {
	Exchange(q *dnswire.Message, tcp bool) (*dnswire.Message, time.Duration, error)
}

// DeadlineTransport is a Transport that accepts a per-exchange timeout,
// letting the resolver escalate deadlines attempt by attempt instead of
// waiting a full fixed timeout on every retry of a lossy path.
type DeadlineTransport interface {
	Transport
	ExchangeDeadline(q *dnswire.Message, tcp bool, timeout time.Duration) (*dnswire.Message, time.Duration, error)
}

// Config shapes resolver behavior.
type Config struct {
	// Qmin enables QNAME minimization.
	Qmin bool
	// Validate enables DNSSEC validation queries (DS + DNSKEY).
	Validate bool
	// AggressiveNSEC enables RFC 8198 aggressive use of DNSSEC-validated
	// negative answers: NSEC ranges from NXDOMAIN responses synthesize
	// denials for other covered names without querying, the mechanism the
	// paper suggests behind the 2020 decline in cloud junk (§4.2.3).
	// Requires Validate.
	AggressiveNSEC bool
	// EDNSSize is the advertised EDNS(0) UDP payload size; 0 sends
	// queries without EDNS (classic 512-byte behavior).
	EDNSSize uint16
	// UseCookies attaches RFC 7873 DNS COOKIE options (requires EDNS).
	// Servers exempt cookie-validated clients from rate limiting.
	UseCookies bool
	// ExploreProb is the probability of querying the slower family when
	// both are available (default 0.1).
	ExploreProb float64
	// Retries is how many extra attempts a failed exchange gets (each
	// retry re-picks the family, so a broken path fails over). Default 1.
	Retries int
	// RetryBackoff is the base delay before the first retry; each
	// further retry doubles it (±50% jitter, capped at MaxBackoff).
	// 0 disables backoff, preserving the tight-loop behavior.
	RetryBackoff time.Duration
	// MaxBackoff caps the escalated backoff delay (default 2s).
	MaxBackoff time.Duration
	// AttemptTimeout enables per-attempt timeout escalation on
	// DeadlineTransport upstreams: attempt k gets
	// max(AttemptTimeout, RTO(family)) << k, where RTO is the
	// Jacobson-style SRTT + 4·RTTVAR estimate. 0 leaves the transport's
	// own timeout in charge.
	AttemptTimeout time.Duration
	// RetryServfail treats SERVFAIL responses as failed attempts (the
	// brownout signature): the exchange is retried on a re-picked
	// family, and only after the budget is exhausted is the SERVFAIL
	// surfaced to the caller.
	RetryServfail bool
	// Sleep is the backoff wait hook (default time.Sleep); simulations
	// point it at a virtual clock.
	Sleep func(time.Duration)
	// Now is the clock used for TTL caching (default time.Now).
	Now func() time.Time
	// Seed makes the resolver's random decisions reproducible.
	Seed int64
	// Telemetry, when set, publishes live retry/fallback/RTT metrics on
	// the registry (resolver_* series). Nil — the default — makes every
	// instrumentation site a no-op.
	Telemetry *telemetry.Registry
}

// resolverMetrics is the live telemetry mirror of Stats. All fields are
// nil when Config.Telemetry is unset, so the increments below cost one
// branch each.
type resolverMetrics struct {
	sent            *telemetry.Counter
	cacheHits       *telemetry.Counter
	retries         *telemetry.Counter
	rtoEscalations  *telemetry.Counter
	servfailRetries *telemetry.Counter
	tcpFallbacks    *telemetry.Counter
	attemptErrors   *telemetry.Counter
	failedExchanges *telemetry.Counter
	rtt             *telemetry.Histogram
}

func newResolverMetrics(reg *telemetry.Registry) resolverMetrics {
	return resolverMetrics{
		sent:            reg.Counter("resolver_queries_sent_total"),
		cacheHits:       reg.Counter("resolver_cache_hits_total"),
		retries:         reg.Counter("resolver_retries_total"),
		rtoEscalations:  reg.Counter("resolver_rto_escalations_total"),
		servfailRetries: reg.Counter("resolver_servfail_retries_total"),
		tcpFallbacks:    reg.Counter("resolver_tcp_fallbacks_total"),
		attemptErrors:   reg.Counter("resolver_attempt_errors_total"),
		failedExchanges: reg.Counter("resolver_failed_exchanges_total"),
		rtt:             reg.Histogram("resolver_rtt_seconds"),
	}
}

// Stats counts queries actually sent to the authoritative server, broken
// down the way the paper's tables are.
type Stats struct {
	Sent       uint64
	ByFamily   map[Family]uint64
	ByTCP      map[bool]uint64
	ByType     map[dnswire.Type]uint64
	CacheHits  uint64
	Truncated  uint64 // responses that came back TC=1
	TCPRetries uint64
	// AggressiveHits counts NXDOMAINs synthesized from cached NSEC
	// ranges (RFC 8198) without any query reaching the server.
	AggressiveHits uint64
	// Robustness accounting: Exchanges counts logical exchanges (one
	// per name/type the resolver needed answered); Sent counts wire
	// queries, so Sent/Exchanges is the retry amplification a perfect
	// network would hold at 1.0.
	Exchanges       uint64
	Retries         uint64 // wire attempts beyond each exchange's first
	AttemptErrors   uint64 // attempts that failed (timeout, corrupt, refused)
	ServfailRetries uint64 // attempts retried because of a SERVFAIL answer
	FailedExchanges uint64 // exchanges that exhausted the retry budget
}

// Result summarizes one resolution from the vantage of the TLD server.
type Result struct {
	RCode      dnswire.RCode
	Delegation string // the delegation the name lives under ("" if none)
	CacheHit   bool   // true when no query reached the server
	Queries    int    // queries sent for this resolution
}

var (
	// ErrNoUpstream is returned when no transport is registered.
	ErrNoUpstream = errors.New("resolver: no upstream transport")
	// ErrExchange wraps transport failures.
	ErrExchange = errors.New("resolver: exchange failed")
)

type cacheKey struct {
	name string
	typ  dnswire.Type
}

type cacheEntry struct {
	expires    time.Time
	rcode      dnswire.RCode
	delegation string
}

// rttEstimate is a per-family Jacobson/Karels estimator: the smoothed
// RTT drives upstream preference, and SRTT + 4·RTTVAR is the
// retransmission timeout base for per-attempt deadline escalation.
type rttEstimate struct {
	srtt   time.Duration
	rttvar time.Duration
}

// rto returns the retransmission timeout (0 when unmeasured).
func (e rttEstimate) rto() time.Duration {
	if e.srtt == 0 {
		return 0
	}
	return e.srtt + 4*e.rttvar
}

// Resolver is a simulated caching resolver pointed at one zone's
// authoritative servers.
type Resolver struct {
	origin string
	cfg    Config

	mu        sync.Mutex
	upstreams map[Family]Transport
	rtt       map[Family]rttEstimate
	cache     map[cacheKey]cacheEntry
	nsec      *NSECCache
	jar       *CookieJar
	rng       *rand.Rand
	nextID    uint16
	stats     Stats
	tm        resolverMetrics
}

// New builds a resolver for the zone rooted at origin.
func New(origin string, cfg Config) *Resolver {
	if cfg.Now == nil {
		cfg.Now = time.Now
	}
	if cfg.Sleep == nil {
		cfg.Sleep = time.Sleep
	}
	if cfg.ExploreProb <= 0 {
		cfg.ExploreProb = 0.1
	}
	if cfg.MaxBackoff <= 0 {
		cfg.MaxBackoff = 2 * time.Second
	}
	return &Resolver{
		origin:    dnswire.CanonicalName(origin),
		cfg:       cfg,
		upstreams: make(map[Family]Transport),
		rtt:       make(map[Family]rttEstimate),
		cache:     make(map[cacheKey]cacheEntry),
		nsec:      NewNSECCache(origin),
		jar:       NewCookieJar(cfg.Seed),
		rng:       rand.New(rand.NewSource(cfg.Seed)),
		tm:        newResolverMetrics(cfg.Telemetry),
	}
}

// AddUpstream registers the transport for one family. Registering both
// families enables the RTT-preference policy.
func (r *Resolver) AddUpstream(f Family, t Transport) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.upstreams[f] = t
}

// Stats returns a snapshot of the counters.
func (r *Resolver) Stats() Stats {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := r.stats
	out.ByFamily = copyMap(r.stats.ByFamily)
	out.ByTCP = copyMap(r.stats.ByTCP)
	out.ByType = copyMap(r.stats.ByType)
	return out
}

func copyMap[K comparable, V any](m map[K]V) map[K]V {
	out := make(map[K]V, len(m))
	for k, v := range m {
		out[k] = v
	}
	return out
}

// RTT returns the smoothed RTT estimate for a family (0 if unmeasured).
func (r *Resolver) RTT(f Family) time.Duration {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.rtt[f].srtt
}

// chooseFamily implements the latency-driven preference: pick the family
// with the lower smoothed RTT, but explore the other with ExploreProb.
func (r *Resolver) chooseFamily() (Family, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	_, has4 := r.upstreams[FamilyV4]
	_, has6 := r.upstreams[FamilyV6]
	switch {
	case !has4 && !has6:
		return 0, ErrNoUpstream
	case has4 && !has6:
		return FamilyV4, nil
	case has6 && !has4:
		return FamilyV6, nil
	}
	rtt4, rtt6 := r.rtt[FamilyV4].srtt, r.rtt[FamilyV6].srtt
	// Unmeasured families get explored first.
	if rtt4 == 0 {
		return FamilyV4, nil
	}
	if rtt6 == 0 {
		return FamilyV6, nil
	}
	fast, slow := FamilyV4, FamilyV6
	rf, rs := rtt4, rtt6
	if rtt6 < rtt4 {
		fast, slow = FamilyV6, FamilyV4
		rf, rs = rtt6, rtt4
	}
	// Comparable RTTs (within 20%) get an even split, matching the
	// observed behavior of production resolvers ("Recursives in the
	// Wild"); clearly slower paths only see exploration traffic.
	if rs-rf < rs/5 {
		if r.rng.Float64() < 0.5 {
			return slow, nil
		}
		return fast, nil
	}
	if r.rng.Float64() < r.cfg.ExploreProb {
		return slow, nil
	}
	return fast, nil
}

// errServfailAnswer marks an attempt that completed but answered
// SERVFAIL, retried under Config.RetryServfail.
var errServfailAnswer = errors.New("resolver: upstream answered SERVFAIL")

// exchange sends one query with retry-and-failover: a failed attempt is
// retried (re-picking the family) up to Retries extra times, like
// production resolvers cycling through their upstream set. Retries back
// off exponentially with jitter when RetryBackoff is set, so a
// browned-out server is not hammered in a tight loop.
func (r *Resolver) exchange(name string, typ dnswire.Type) (*dnswire.Message, int, error) {
	retries := r.cfg.Retries
	if retries <= 0 {
		retries = 1
	}
	r.count(func(s *Stats) { s.Exchanges++ })
	sent := 0
	var err error
	var lastServfail *dnswire.Message
	for attempt := 0; attempt <= retries; attempt++ {
		if attempt > 0 {
			r.count(func(s *Stats) { s.Retries++ })
			r.tm.retries.Inc()
			r.backoff(attempt)
		}
		var resp *dnswire.Message
		var n int
		resp, n, err = r.exchangeOnce(name, typ, attempt)
		sent += n
		if err == nil {
			return resp, sent, nil
		}
		if errors.Is(err, errServfailAnswer) {
			lastServfail = resp
			r.count(func(s *Stats) { s.ServfailRetries++ })
			r.tm.servfailRetries.Inc()
		} else {
			r.count(func(s *Stats) { s.AttemptErrors++ })
			r.tm.attemptErrors.Inc()
		}
		if errors.Is(err, ErrNoUpstream) {
			break // nothing to fail over to
		}
	}
	if lastServfail != nil && errors.Is(err, errServfailAnswer) {
		// Every server stayed browned out: surface the SERVFAIL answer
		// itself rather than failing the lookup outright.
		return lastServfail, sent, nil
	}
	r.count(func(s *Stats) { s.FailedExchanges++ })
	r.tm.failedExchanges.Inc()
	return nil, sent, err
}

// backoff sleeps before retry attempt k (k ≥ 1): base·2^(k-1) with
// ±50% jitter, capped at MaxBackoff. A zero base disables the wait.
func (r *Resolver) backoff(attempt int) {
	base := r.cfg.RetryBackoff
	if base <= 0 {
		return
	}
	d := base << (attempt - 1)
	if d > r.cfg.MaxBackoff || d <= 0 {
		d = r.cfg.MaxBackoff
	}
	r.mu.Lock()
	jitter := 0.5 + r.rng.Float64()
	r.mu.Unlock()
	r.cfg.Sleep(time.Duration(float64(d) * jitter))
}

// attemptTimeout computes the escalated deadline for one attempt:
// max(AttemptTimeout, RTO) doubled per retry. 0 means "transport
// default" (escalation disabled).
func (r *Resolver) attemptTimeout(fam Family, attempt int) time.Duration {
	base := r.cfg.AttemptTimeout
	if base <= 0 {
		return 0
	}
	r.mu.Lock()
	rto := r.rtt[fam].rto()
	r.mu.Unlock()
	if rto > base {
		base = rto
	}
	if attempt > 0 {
		// Each retry doubles the working deadline — the RTO escalation
		// the paper's junk-traffic inflation partly comes from.
		r.tm.rtoEscalations.Inc()
	}
	const maxTimeout = 8 * time.Second
	d := base << attempt
	if d > maxTimeout || d <= 0 {
		d = maxTimeout
	}
	return d
}

// send performs one wire exchange, escalating the deadline when the
// transport supports it.
func (r *Resolver) send(t Transport, q *dnswire.Message, tcp bool, timeout time.Duration) (*dnswire.Message, time.Duration, error) {
	if dt, ok := t.(DeadlineTransport); ok && timeout > 0 {
		return dt.ExchangeDeadline(q, tcp, timeout)
	}
	return t.Exchange(q, tcp)
}

// exchangeOnce sends one query, handling family choice, RTT accounting,
// truncation (TCP retry) and stats. It may send up to two wire queries.
func (r *Resolver) exchangeOnce(name string, typ dnswire.Type, attempt int) (*dnswire.Message, int, error) {
	fam, err := r.chooseFamily()
	if err != nil {
		return nil, 0, err
	}
	r.mu.Lock()
	t := r.upstreams[fam]
	r.nextID++
	id := r.nextID
	r.mu.Unlock()

	q := dnswire.NewQuery(id, name, typ)
	if r.cfg.EDNSSize > 0 {
		q.WithEdns(r.cfg.EDNSSize, r.cfg.Validate)
		if r.cfg.UseCookies {
			r.jar.Attach(q)
		}
	}

	timeout := r.attemptTimeout(fam, attempt)
	sent := 0
	resp, rtt, err := r.send(t, q, false, timeout)
	sent++
	r.note(fam, false, typ, rtt, err == nil)
	if err != nil {
		return nil, sent, fmt.Errorf("%w: udp %s %s: %v", ErrExchange, name, typ, err)
	}
	r.learnCookie(resp)
	if resp.Header.Truncated {
		r.mu.Lock()
		r.stats.Truncated++
		r.stats.TCPRetries++
		r.mu.Unlock()
		r.tm.tcpFallbacks.Inc()
		resp, rtt, err = r.send(t, q, true, timeout)
		sent++
		r.note(fam, true, typ, rtt, err == nil)
		if err != nil {
			return nil, sent, fmt.Errorf("%w: tcp %s %s: %v", ErrExchange, name, typ, err)
		}
	}
	if r.cfg.RetryServfail && resp.Header.RCode == dnswire.RCodeServFail {
		// The answer arrived but the server is failing; penalize the
		// family like a loss so retries prefer the other path.
		r.penalize(fam)
		return resp, sent, fmt.Errorf("%w: %s %s via %s", errServfailAnswer, name, typ, fam)
	}
	return resp, sent, nil
}

// count applies a stats mutation under the lock.
func (r *Resolver) count(f func(*Stats)) {
	r.mu.Lock()
	f(&r.stats)
	r.mu.Unlock()
}

// learnCookie remembers the server cookie echoed in a response.
func (r *Resolver) learnCookie(resp *dnswire.Message) {
	if !r.cfg.UseCookies {
		return
	}
	r.jar.Learn(resp)
}

// note updates stats and the RTT estimator.
func (r *Resolver) note(f Family, tcp bool, typ dnswire.Type, rtt time.Duration, ok bool) {
	r.tm.sent.Inc()
	if ok && rtt > 0 {
		r.tm.rtt.Observe(rtt)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.stats.Sent++
	if r.stats.ByFamily == nil {
		r.stats.ByFamily = make(map[Family]uint64)
		r.stats.ByTCP = make(map[bool]uint64)
		r.stats.ByType = make(map[dnswire.Type]uint64)
	}
	r.stats.ByFamily[f]++
	r.stats.ByTCP[tcp]++
	r.stats.ByType[typ]++
	if ok && rtt > 0 {
		e := r.rtt[f]
		if e.srtt == 0 {
			e.srtt, e.rttvar = rtt, rtt/2
		} else {
			dev := rtt - e.srtt
			if dev < 0 {
				dev = -dev
			}
			e.rttvar = (3*e.rttvar + dev) / 4
			e.srtt = (7*e.srtt + rtt) / 8
		}
		r.rtt[f] = e
		return
	}
	if !ok {
		r.penalizeLocked(f)
	}
}

// penalize degrades a family's estimate so retries fail over.
func (r *Resolver) penalize(f Family) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.penalizeLocked(f)
}

func (r *Resolver) penalizeLocked(f Family) {
	// A failed exchange penalizes the family's estimate so retries
	// fail over to the other upstream, and inflates the variance so the
	// escalated RTO stays conservative while the path is suspect.
	e := r.rtt[f]
	penalty := 2 * time.Second
	if e.srtt*2 > penalty {
		penalty = e.srtt * 2
	}
	// Cap the degraded estimate so consecutive failures cannot double it
	// without bound: past the cap it no longer orders preferences or
	// changes the (8s-capped) escalated RTO, it only poisons the estimate.
	if maxPenalty := 10 * time.Second; penalty > maxPenalty {
		penalty = maxPenalty
	}
	e.srtt = penalty
	if e.rttvar < penalty/4 {
		e.rttvar = penalty / 4
	}
	r.rtt[f] = e
}

// cacheGet returns a live cache entry.
func (r *Resolver) cacheGet(name string, typ dnswire.Type) (cacheEntry, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	e, ok := r.cache[cacheKey{name, typ}]
	if !ok || r.cfg.Now().After(e.expires) {
		return cacheEntry{}, false
	}
	return e, true
}

func (r *Resolver) cachePut(name string, typ dnswire.Type, e cacheEntry) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.cache[cacheKey{name, typ}] = e
}

// ttlOf extracts a caching TTL from a response (minimum RR TTL, or the SOA
// minimum for negative answers), floored at 1s and capped at 1h to keep
// simulations lively.
func ttlOf(m *dnswire.Message) time.Duration {
	best := uint32(3600)
	seen := false
	scan := func(rrs []dnswire.RR) {
		for _, rr := range rrs {
			if rr.TTL < best || !seen {
				best, seen = rr.TTL, true
			}
			if soa, ok := rr.Data.(dnswire.SOAData); ok {
				if soa.Minimum < best {
					best = soa.Minimum
				}
			}
		}
	}
	scan(m.Answers)
	scan(m.Authority)
	if best < 1 {
		best = 1
	}
	if best > 3600 {
		best = 3600
	}
	return time.Duration(best) * time.Second
}

// classify inspects a TLD response: the delegation it refers to, if any.
func classify(m *dnswire.Message) (delegation string, delegated bool) {
	for _, rr := range m.Authority {
		if rr.Data.Type() == dnswire.TypeNS {
			return rr.Name, true
		}
	}
	for _, rr := range m.Answers {
		if rr.Data.Type() == dnswire.TypeNS {
			return rr.Name, true
		}
	}
	return "", false
}

// Resolve performs the TLD-side work to resolve (qname, qtype): finds the
// covering delegation (possibly via QNAME minimization), performs DNSSEC
// validation queries if configured, and returns what the authoritative
// vantage point saw.
func (r *Resolver) Resolve(qname string, qtype dnswire.Type) (*Result, error) {
	qname = dnswire.CanonicalName(qname)
	if !dnswire.IsSubdomain(qname, r.origin) {
		return nil, fmt.Errorf("resolver: %s not under %s", qname, r.origin)
	}
	res := &Result{}

	// Cache: any cached covering delegation means no query is sent.
	if e, ok := r.coveringDelegation(qname); ok {
		r.tm.cacheHits.Inc()
		r.mu.Lock()
		r.stats.CacheHits++
		r.mu.Unlock()
		res.CacheHit = true
		res.RCode = e.rcode
		res.Delegation = e.delegation
		return res, nil
	}
	// Cached negative answer?
	if e, ok := r.cacheGet(qname, qtype); ok && e.rcode == dnswire.RCodeNXDomain {
		r.tm.cacheHits.Inc()
		r.mu.Lock()
		r.stats.CacheHits++
		r.mu.Unlock()
		res.CacheHit = true
		res.RCode = dnswire.RCodeNXDomain
		return res, nil
	}
	// RFC 8198: a cached validated NSEC range covering qname lets us
	// synthesize NXDOMAIN without asking the authoritative server at all.
	if r.cfg.AggressiveNSEC && r.nsec.Covers(qname, r.cfg.Now()) {
		r.tm.cacheHits.Inc()
		r.mu.Lock()
		r.stats.CacheHits++
		r.stats.AggressiveHits++
		r.mu.Unlock()
		res.CacheHit = true
		res.RCode = dnswire.RCodeNXDomain
		return res, nil
	}

	var err error
	if r.cfg.Qmin {
		err = r.resolveQmin(qname, res)
	} else {
		err = r.resolveDirect(qname, qtype, res)
	}
	if err != nil {
		return nil, err
	}
	if r.cfg.Validate && res.Delegation != "" {
		if err := r.validate(res); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// coveringDelegation scans cached NS entries for qname's suffixes.
func (r *Resolver) coveringDelegation(qname string) (cacheEntry, bool) {
	name := qname
	for {
		if name == r.origin || !dnswire.IsSubdomain(name, r.origin) {
			return cacheEntry{}, false
		}
		if e, ok := r.cacheGet(name, dnswire.TypeNS); ok && e.delegation != "" {
			return e, true
		}
		name = dnswire.ParentName(name)
	}
}

// resolveDirect sends the full qname/qtype, pre-RFC7816 style.
func (r *Resolver) resolveDirect(qname string, qtype dnswire.Type, res *Result) error {
	resp, sent, err := r.exchange(qname, qtype)
	res.Queries += sent
	if err != nil {
		return err
	}
	return r.absorb(qname, qtype, resp, res)
}

// resolveQmin walks NS queries down one label at a time (RFC 7816 §3).
func (r *Resolver) resolveQmin(qname string, res *Result) error {
	labels := dnswire.SplitLabels(qname)
	originCount := dnswire.CountLabels(r.origin)
	// Build names from apex+1 label to the full name.
	for depth := originCount + 1; depth <= len(labels); depth++ {
		name := joinSuffix(labels, depth)
		if e, ok := r.cacheGet(name, dnswire.TypeNS); ok {
			if e.delegation != "" {
				res.RCode = e.rcode
				res.Delegation = e.delegation
				return nil
			}
			if e.rcode == dnswire.RCodeNXDomain {
				res.RCode = e.rcode
				return nil
			}
			continue // cached ENT; go deeper
		}
		resp, sent, err := r.exchange(name, dnswire.TypeNS)
		res.Queries += sent
		if err != nil {
			return err
		}
		if err := r.absorb(name, dnswire.TypeNS, resp, res); err != nil {
			return err
		}
		if res.Delegation != "" || res.RCode == dnswire.RCodeNXDomain {
			return nil
		}
		// NODATA at an empty non-terminal (e.g. co.nz): continue deeper.
	}
	return nil
}

// joinSuffix returns the name formed by the last depth labels.
func joinSuffix(labels []string, depth int) string {
	out := ""
	for i := len(labels) - depth; i < len(labels); i++ {
		out += labels[i] + "."
	}
	return out
}

// absorb caches and records a response.
func (r *Resolver) absorb(qname string, qtype dnswire.Type, resp *dnswire.Message, res *Result) error {
	ttl := ttlOf(resp)
	now := r.cfg.Now()
	switch resp.Header.RCode {
	case dnswire.RCodeNoError:
		if delegation, ok := classify(resp); ok {
			res.Delegation = delegation
			res.RCode = dnswire.RCodeNoError
			r.cachePut(delegation, dnswire.TypeNS, cacheEntry{
				expires: now.Add(ttl), rcode: dnswire.RCodeNoError, delegation: delegation,
			})
			return nil
		}
		// NODATA (apex or ENT): cache the absence.
		res.RCode = dnswire.RCodeNoError
		r.cachePut(qname, qtype, cacheEntry{expires: now.Add(ttl), rcode: dnswire.RCodeNoError})
		return nil
	case dnswire.RCodeNXDomain:
		res.RCode = dnswire.RCodeNXDomain
		r.cachePut(qname, qtype, cacheEntry{expires: now.Add(ttl), rcode: dnswire.RCodeNXDomain})
		if r.cfg.AggressiveNSEC && r.cfg.Validate {
			r.nsec.Remember(resp, now.Add(ttl))
		}
		return nil
	default:
		res.RCode = resp.Header.RCode
		return nil
	}
}

// validate issues the DNSSEC queries of a validating resolver: DS for the
// delegation (per-domain) and DNSKEY for the zone apex (once per TTL).
func (r *Resolver) validate(res *Result) error {
	if _, ok := r.cacheGet(res.Delegation, dnswire.TypeDS); !ok {
		resp, sent, err := r.exchange(res.Delegation, dnswire.TypeDS)
		res.Queries += sent
		if err != nil {
			return err
		}
		r.cachePut(res.Delegation, dnswire.TypeDS, cacheEntry{
			expires: r.cfg.Now().Add(ttlOf(resp)), rcode: resp.Header.RCode,
		})
	}
	if _, ok := r.cacheGet(r.origin, dnswire.TypeDNSKEY); !ok {
		resp, sent, err := r.exchange(r.origin, dnswire.TypeDNSKEY)
		res.Queries += sent
		if err != nil {
			return err
		}
		r.cachePut(r.origin, dnswire.TypeDNSKEY, cacheEntry{
			expires: r.cfg.Now().Add(ttlOf(resp)), rcode: resp.Header.RCode,
		})
	}
	return nil
}
