// Package authserver implements an authoritative DNS server for the
// zonedb zones: parent-side referrals with glue and DS records, apex
// SOA/NS/DNSKEY service, NXDOMAIN with negative-caching SOA, EDNS(0)-driven
// UDP truncation, and response rate limiting (RRL) that answers over-limit
// UDP clients with TC=1 so genuine resolvers re-ask over TCP — the paper's
// §4.4 explanation for one source of cloud TCP traffic.
//
// The query-answering logic lives in Engine, which is transport-free and
// directly usable in tests and simulations; Server (see server.go) binds an
// Engine to real UDP and TCP listeners.
package authserver

import (
	"hash/fnv"
	"net/netip"
	"strings"
	"sync"
	"time"

	"dnscentral/internal/dnswire"
	"dnscentral/internal/telemetry"
	"dnscentral/internal/zonedb"
)

// RRLConfig configures response rate limiting.
type RRLConfig struct {
	// RatePerSec is the sustained per-client responses per second;
	// 0 disables RRL.
	RatePerSec float64
	// Burst is the bucket depth.
	Burst float64
	// SlipEvery makes every n-th over-limit response a TC=1 "slip" instead
	// of a silent drop; 1 means always slip (our default, so simulated
	// resolvers always learn to retry over TCP).
	SlipEvery int
}

// Engine answers queries for one zone.
type Engine struct {
	zone         *zonedb.Zone
	rrl          RRLConfig
	now          func() time.Time
	cookieSecret uint64

	mu      sync.Mutex
	buckets map[netip.Addr]*bucket

	statsMu sync.Mutex
	stats   Stats
}

// Stats counts engine activity.
type Stats struct {
	Queries     uint64
	Referrals   uint64
	NXDomain    uint64
	Refused     uint64
	FormErr     uint64
	NotImp      uint64
	RRLSlips    uint64
	RRLDrops    uint64
	CookieSeen  uint64
	CookieValid uint64
	ApexAnswers uint64
	DSAnswers   uint64
}

type bucket struct {
	tokens float64
	last   time.Time
	slips  int
}

// Option configures an Engine.
type Option func(*Engine)

// WithRRL enables response rate limiting.
func WithRRL(cfg RRLConfig) Option {
	return func(e *Engine) {
		if cfg.SlipEvery <= 0 {
			cfg.SlipEvery = 1
		}
		e.rrl = cfg
	}
}

// WithClock injects a time source (tests and simulation).
func WithClock(now func() time.Time) Option {
	return func(e *Engine) { e.now = now }
}

// WithTelemetry publishes the engine's cumulative counters — query
// volume, the RCODE mix, RRL activity, cookie validation — on reg as
// exposition-time CounterFuncs reading the existing Stats, so the answer
// path itself carries zero extra work whether telemetry is on or off.
func WithTelemetry(reg *telemetry.Registry) Option {
	return func(e *Engine) {
		if reg == nil {
			return
		}
		field := func(name string, read func(Stats) uint64) {
			reg.CounterFunc(name, func() uint64 { return read(e.Stats()) })
		}
		field("authserver_queries_total", func(s Stats) uint64 { return s.Queries })
		field("authserver_referrals_total", func(s Stats) uint64 { return s.Referrals })
		field("authserver_rrl_drops_total", func(s Stats) uint64 { return s.RRLDrops })
		field("authserver_rrl_slips_total", func(s Stats) uint64 { return s.RRLSlips })
		field("authserver_cookies_seen_total", func(s Stats) uint64 { return s.CookieSeen })
		field("authserver_cookies_valid_total", func(s Stats) uint64 { return s.CookieValid })
		field(`authserver_rcode_total{rcode="NOERROR"}`, func(s Stats) uint64 {
			// Everything answered that is not an error or an RRL drop:
			// referrals, apex/DS answers, and NODATA responses.
			return s.Queries - s.NXDomain - s.Refused - s.FormErr - s.NotImp - s.RRLDrops
		})
		field(`authserver_rcode_total{rcode="NXDOMAIN"}`, func(s Stats) uint64 { return s.NXDomain })
		field(`authserver_rcode_total{rcode="REFUSED"}`, func(s Stats) uint64 { return s.Refused })
		field(`authserver_rcode_total{rcode="FORMERR"}`, func(s Stats) uint64 { return s.FormErr })
		field(`authserver_rcode_total{rcode="NOTIMP"}`, func(s Stats) uint64 { return s.NotImp })
	}
}

// NewEngine builds an engine for zone.
func NewEngine(zone *zonedb.Zone, opts ...Option) *Engine {
	e := &Engine{
		zone:         zone,
		now:          time.Now,
		cookieSecret: 0x5f3759df5f3759df,
		buckets:      make(map[netip.Addr]*bucket),
	}
	for _, o := range opts {
		o(e)
	}
	return e
}

// Zone returns the zone the engine serves.
func (e *Engine) Zone() *zonedb.Zone { return e.zone }

// Stats returns a snapshot of the counters.
func (e *Engine) Stats() Stats {
	e.statsMu.Lock()
	defer e.statsMu.Unlock()
	return e.stats
}

// Handle answers one query. client is the source address (used for RRL)
// and tcp reports the transport (RRL and truncation only apply to UDP).
// A nil return means "drop silently" (RRL decided not even to slip).
func (e *Engine) Handle(q *dnswire.Message, client netip.Addr, tcp bool) *dnswire.Message {
	e.statsMu.Lock()
	e.stats.Queries++
	e.statsMu.Unlock()

	if q.Header.Response || len(q.Questions) != 1 {
		e.count(func(s *Stats) { s.FormErr++ })
		r := q.Reply()
		r.Header.RCode = dnswire.RCodeFormErr
		return r
	}
	if q.Header.Opcode != dnswire.OpcodeQuery {
		e.count(func(s *Stats) { s.NotImp++ })
		r := q.Reply()
		r.Header.RCode = dnswire.RCodeNotImp
		return r
	}

	// DNS cookies (RFC 7873): a valid server cookie proves the source
	// address is not spoofed, so such clients bypass RRL.
	cookie := e.parseCookie(q, client)
	if cookie.present {
		e.count(func(s *Stats) { s.CookieSeen++ })
		if cookie.serverValid {
			e.count(func(s *Stats) { s.CookieValid++ })
		}
	}

	// RRL applies before the (cheap) lookup, like BIND's implementation.
	if !tcp && e.rrl.RatePerSec > 0 && !cookie.serverValid {
		switch e.admit(client) {
		case rrlSlip:
			e.count(func(s *Stats) { s.RRLSlips++ })
			r := q.Reply()
			r.Header.Truncated = true
			e.attachCookie(r, client, cookie)
			return r
		case rrlDrop:
			e.count(func(s *Stats) { s.RRLDrops++ })
			return nil
		}
	}
	r := e.answer(q)
	e.attachCookie(r, client, cookie)
	return r
}

type rrlVerdict int

const (
	rrlPass rrlVerdict = iota
	rrlSlip
	rrlDrop
)

// admit updates the client's token bucket and decides pass/slip/drop.
func (e *Engine) admit(client netip.Addr) rrlVerdict {
	e.mu.Lock()
	defer e.mu.Unlock()
	now := e.now()
	b, ok := e.buckets[client]
	if !ok {
		b = &bucket{tokens: e.rrl.Burst, last: now}
		e.buckets[client] = b
	}
	elapsed := now.Sub(b.last).Seconds()
	if elapsed > 0 {
		b.tokens += elapsed * e.rrl.RatePerSec
		if b.tokens > e.rrl.Burst {
			b.tokens = e.rrl.Burst
		}
		b.last = now
	}
	if b.tokens >= 1 {
		b.tokens--
		return rrlPass
	}
	b.slips++
	if b.slips%e.rrl.SlipEvery == 0 {
		return rrlSlip
	}
	return rrlDrop
}

// answer implements the zone lookup semantics.
func (e *Engine) answer(q *dnswire.Message) *dnswire.Message {
	question := q.Question()
	qname := dnswire.CanonicalName(question.Name)
	r := q.Reply()

	if question.Class != dnswire.ClassIN {
		r.Header.RCode = dnswire.RCodeRefused
		e.count(func(s *Stats) { s.Refused++ })
		return r
	}
	zone := e.zone
	if !dnswire.IsSubdomain(qname, zone.Origin) {
		r.Header.RCode = dnswire.RCodeRefused
		e.count(func(s *Stats) { s.Refused++ })
		return r
	}
	do := q.Edns != nil && q.Edns.DO

	// Apex queries.
	if qname == zone.Origin {
		r.Header.Authoritative = true
		e.count(func(s *Stats) { s.ApexAnswers++ })
		switch question.Type {
		case dnswire.TypeSOA:
			r.Answers = []dnswire.RR{zone.SOA()}
		case dnswire.TypeNS:
			r.Answers = zone.ApexNS()
			e.addApexGlue(r)
		case dnswire.TypeDNSKEY:
			r.Answers = zone.DNSKEY()
			if do {
				r.Answers = append(r.Answers, signatureFor(r.Answers[0], zone.Origin))
			}
		default:
			// NODATA: NOERROR with SOA in authority.
			r.Authority = []dnswire.RR{zone.SOA()}
		}
		return r
	}

	if zone.IsLeaf() {
		return e.answerLeaf(r, qname, question.Type, do)
	}

	delegation, ok := zone.Delegation(qname)
	if !ok {
		if zone.Exists(qname) {
			// Empty non-terminal (e.g. co.nz.): NODATA.
			r.Header.Authoritative = true
			r.Authority = []dnswire.RR{zone.SOA()}
			if do {
				e.addDenialProof(r, qname)
			}
			return r
		}
		r.Header.Authoritative = true
		r.Header.RCode = dnswire.RCodeNXDomain
		r.Authority = []dnswire.RR{zone.SOA()}
		if do {
			e.addDenialProof(r, qname)
		}
		e.count(func(s *Stats) { s.NXDomain++ })
		return r
	}

	// DS for the delegation itself is answered authoritatively by the
	// parent (RFC 4035 §3.1.4.1).
	if question.Type == dnswire.TypeDS && qname == delegation {
		r.Header.Authoritative = true
		e.count(func(s *Stats) { s.DSAnswers++ })
		if ds := zone.DSRecords(delegation); len(ds) > 0 {
			r.Answers = ds
			if do {
				r.Answers = append(r.Answers, signatureFor(ds[0], zone.Origin))
			}
		} else {
			r.Authority = []dnswire.RR{zone.SOA()} // unsigned: NODATA
			if do {
				e.addDenialProof(r, qname)
			}
		}
		return r
	}

	// Everything else at or below a delegation: referral.
	e.count(func(s *Stats) { s.Referrals++ })
	hosts := zone.DelegationNS(delegation)
	for _, h := range hosts {
		r.Authority = append(r.Authority, dnswire.RR{
			Name: delegation, Class: dnswire.ClassIN, TTL: 172800,
			Data: dnswire.NSData{Host: h},
		})
	}
	if do {
		if ds := zone.DSRecords(delegation); len(ds) > 0 {
			r.Authority = append(r.Authority, ds...)
			r.Authority = append(r.Authority, signatureFor(ds[0], zone.Origin))
		}
	}
	for _, h := range hosts {
		if dnswire.IsSubdomain(h, delegation) {
			v4, v6 := GlueAddrs(h)
			r.Additional = append(r.Additional,
				dnswire.RR{Name: h, Class: dnswire.ClassIN, TTL: 172800, Data: dnswire.AData{Addr: v4}},
				dnswire.RR{Name: h, Class: dnswire.ClassIN, TTL: 172800, Data: dnswire.AAAAData{Addr: v6}},
			)
		}
	}
	return r
}

// signatureFor fabricates an RRSIG covering rr's RRSet, sized like a
// production 2048-bit RSA signature (256 bytes). Signed referrals therefore
// exceed the classic 512-byte UDP budget, which is the mechanism behind the
// paper's Figure 6/§4.4 finding that Facebook's 512-byte EDNS advertisements
// yield ~17% truncated UDP answers while 1232+ advertisers see almost none.
func signatureFor(rr dnswire.RR, signer string) dnswire.RR {
	h := fnv.New64a()
	_, _ = h.Write([]byte(rr.Name))
	sum := h.Sum64()
	sig := make([]byte, 256)
	for i := range sig {
		sig[i] = byte(sum >> (uint(i) % 8 * 8))
	}
	return dnswire.RR{
		Name: rr.Name, Class: dnswire.ClassIN, TTL: rr.TTL,
		Data: dnswire.RRSIGData{
			TypeCovered: rr.Data.Type(),
			Algorithm:   8, Labels: uint8(dnswire.CountLabels(rr.Name)),
			OriginalTTL: rr.TTL,
			Expiration:  1900000000, Inception: 1500000000,
			KeyTag: uint16(sum), SignerName: signer, Signature: sig,
		},
	}
}

// addDenialProof appends the authenticated denial records a signed zone
// returns alongside a negative answer: RRSIG over the SOA plus an NSEC and
// its RRSIG covering the nonexistent name (RFC 4035 §3.1.3). These push
// negative answers well past 512 bytes, so 512-byte-EDNS clients see TC.
//
// The NSEC range is chosen to be genuinely correct for the virtual zone
// (whose registered names are all d<rank>[.category] labels), so
// RFC 8198-style aggressive negative caching in the resolver can reuse it
// for other junk names — the effect the paper suggests behind the 2020
// junk decline (§4.2.3).
func (e *Engine) addDenialProof(r *dnswire.Message, qname string) {
	soa := r.Authority[0]
	r.Authority = append(r.Authority, signatureFor(soa, e.zone.Origin))
	owner, next := DenialRange(e.zone.Origin, qname)
	nsec := dnswire.RR{
		Name: owner, Class: dnswire.ClassIN, TTL: soa.TTL,
		Data: dnswire.NSECData{
			NextName: next,
			Types:    []dnswire.Type{dnswire.TypeNS, dnswire.TypeSOA, dnswire.TypeRRSIG, dnswire.TypeNSEC, dnswire.TypeDNSKEY},
		},
	}
	r.Authority = append(r.Authority, nsec, signatureFor(nsec, e.zone.Origin))
}

// DenialRange returns the NSEC (owner, next] pair covering a nonexistent
// qname in a virtual zone. Registered delegations are d<rank> labels (with
// digits sorting below every letter), so two ranges tile the junk space:
// names below "d" hash into (apex, d.<origin>) and names above the d<digit>
// block into (d:.<origin>, <origin>). The colon label sorts right after
// the digits, making both ranges exact.
func DenialRange(origin, qname string) (owner, next string) {
	origin = dnswire.CanonicalName(origin)
	if canonKey(origin, qname) < "d" {
		return origin, joinLabel("d", origin)
	}
	return joinLabel("d:", origin), origin
}

// joinLabel prefixes a label to an origin, handling the root.
func joinLabel(label, origin string) string {
	if origin == "." {
		return label + "."
	}
	return label + "." + origin
}

// canonKey builds a string whose plain ordering matches DNS canonical
// ordering (RFC 4034 §6.1) for names under origin: labels are reversed so
// the most significant (closest to the origin) compares first, separated
// by a byte below any label character. The origin itself maps to "".
func canonKey(origin, name string) string {
	origin = dnswire.CanonicalName(origin)
	name = dnswire.CanonicalName(name)
	if name == origin {
		return ""
	}
	labels := dnswire.SplitLabels(name)
	labels = labels[:len(labels)-dnswire.CountLabels(origin)]
	var sb strings.Builder
	for i := len(labels) - 1; i >= 0; i-- {
		sb.WriteString(labels[i])
		if i > 0 {
			sb.WriteByte(0x01)
		}
	}
	return sb.String()
}

// CoversName reports whether the NSEC range (owner, next) denies qname in
// DNS canonical order. origin anchors the comparison; next == origin
// means "to the end of the zone".
func CoversName(origin, owner, next, qname string) bool {
	q := canonKey(origin, qname)
	lo := canonKey(origin, owner)
	hi := canonKey(origin, next)
	if q == "" {
		return false // the apex always exists
	}
	if hi == "" && lo != "" {
		// Range wraps to the zone end.
		return q > lo
	}
	return q > lo && q < hi
}

// answerLeaf serves a registrant zone: terminal A/AAAA (and apex MX/TXT)
// answers instead of referrals — the endpoint a resolver reaches after the
// TLD referral the paper's vantage points observe.
func (e *Engine) answerLeaf(r *dnswire.Message, qname string, qtype dnswire.Type, do bool) *dnswire.Message {
	zone := e.zone
	r.Header.Authoritative = true
	if !zone.LeafOwns(qname) {
		r.Header.RCode = dnswire.RCodeNXDomain
		r.Authority = []dnswire.RR{zone.SOA()}
		if do {
			r.Authority = append(r.Authority, signatureFor(r.Authority[0], zone.Origin))
		}
		e.count(func(s *Stats) { s.NXDomain++ })
		return r
	}
	v4, v6 := GlueAddrs(qname)
	switch qtype {
	case dnswire.TypeA:
		r.Answers = []dnswire.RR{{
			Name: qname, Class: dnswire.ClassIN, TTL: 300,
			Data: dnswire.AData{Addr: v4},
		}}
	case dnswire.TypeAAAA:
		r.Answers = []dnswire.RR{{
			Name: qname, Class: dnswire.ClassIN, TTL: 300,
			Data: dnswire.AAAAData{Addr: v6},
		}}
	case dnswire.TypeMX:
		if qname == zone.Origin {
			r.Answers = []dnswire.RR{{
				Name: qname, Class: dnswire.ClassIN, TTL: 300,
				Data: dnswire.MXData{Preference: 10, Exchange: "mail." + zone.Origin},
			}}
		}
	case dnswire.TypeTXT:
		if qname == zone.Origin {
			r.Answers = []dnswire.RR{{
				Name: qname, Class: dnswire.ClassIN, TTL: 300,
				Data: dnswire.TXTData{Strings: []string{"v=spf1 mx -all"}},
			}}
		}
	}
	if len(r.Answers) == 0 {
		r.Authority = []dnswire.RR{zone.SOA()} // NODATA
	} else if do {
		r.Answers = append(r.Answers, signatureFor(r.Answers[0], zone.Origin))
	}
	return r
}

// addApexGlue attaches address records for the zone's own servers.
func (e *Engine) addApexGlue(r *dnswire.Message) {
	for _, h := range e.zone.ServerNames {
		v4, v6 := GlueAddrs(h)
		r.Additional = append(r.Additional,
			dnswire.RR{Name: h, Class: dnswire.ClassIN, TTL: 172800, Data: dnswire.AData{Addr: v4}},
			dnswire.RR{Name: h, Class: dnswire.ClassIN, TTL: 172800, Data: dnswire.AAAAData{Addr: v6}},
		)
	}
}

func (e *Engine) count(f func(*Stats)) {
	e.statsMu.Lock()
	f(&e.stats)
	e.statsMu.Unlock()
}

// GlueAddrs derives the deterministic synthetic A/AAAA addresses of a name
// server host name. All glue lives in 198.18.0.0/15 (benchmark space) and
// 2001:db8:feed::/48 so it never collides with the astrie resolver ranges.
func GlueAddrs(host string) (v4, v6 netip.Addr) {
	h := fnv.New32a()
	_, _ = h.Write([]byte(dnswire.CanonicalName(host)))
	sum := h.Sum32()
	v4 = netip.AddrFrom4([4]byte{198, 18 | byte(sum>>24&1), byte(sum >> 8), byte(sum)})
	var b16 [16]byte
	copy(b16[:6], []byte{0x20, 0x01, 0x0d, 0xb8, 0xfe, 0xed})
	b16[12] = byte(sum >> 24)
	b16[13] = byte(sum >> 16)
	b16[14] = byte(sum >> 8)
	b16[15] = byte(sum)
	v6 = netip.AddrFrom16(b16)
	return v4, v6
}

// PackResponse serializes a response for the transport: TCP responses may
// use the full 64KiB; UDP responses are truncated to the client's EDNS
// budget (512 when absent).
func PackResponse(r *dnswire.Message, q *dnswire.Message, tcp bool) ([]byte, error) {
	return AppendResponse(nil, r, q, tcp)
}

// AppendResponse is PackResponse appending into b — the allocation-free
// path for hot loops that reuse a scratch buffer.
func AppendResponse(b []byte, r *dnswire.Message, q *dnswire.Message, tcp bool) ([]byte, error) {
	if tcp {
		return r.AppendPack(b)
	}
	return r.AppendPackTruncated(b, q.Edns.EffectiveUDPSize())
}
