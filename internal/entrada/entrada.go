// Package entrada is the reproduction's analysis pipeline, playing the
// role ENTRADA (the streaming DNS warehouse of Wullink et al.) plays in
// the paper: it consumes raw pcap packets captured at an authoritative
// server, joins queries with their responses, classifies source addresses
// into providers via the AS registry, and aggregates everything the
// paper's tables and figures need — query and junk counts per provider,
// record-type mixes, IPv4/IPv6 and UDP/TCP splits, EDNS(0) size
// histograms, truncation ratios, resolver and AS sets, and TCP-handshake
// RTT samples per (resolver, server) pair.
package entrada

import (
	"fmt"
	"net/netip"
	"strings"
	"time"

	"dnscentral/internal/astrie"
	"dnscentral/internal/dnswire"
	"dnscentral/internal/layers"
	"dnscentral/internal/pcapio"
	"dnscentral/internal/stats"
)

// ProviderAgg aggregates one traffic source class.
type ProviderAgg struct {
	// Queries is the number of queries (cache misses) seen.
	Queries uint64
	// Junk counts queries whose response RCode was not NOERROR.
	Junk uint64
	// V6 counts queries arriving over IPv6.
	V6 uint64
	// TCP counts queries arriving over TCP.
	TCP uint64
	// ByType counts queries per record type.
	ByType map[dnswire.Type]uint64
	// EDNSSizes histograms the advertised EDNS(0) UDP sizes of UDP
	// queries; no-EDNS queries are recorded as size 0.
	EDNSSizes *stats.Histogram
	// UDPResponses and TruncatedUDP track §4.4's truncation ratio.
	UDPResponses uint64
	TruncatedUDP uint64
	// Resolvers is the distinct source-address set, split by family.
	Resolvers map[netip.Addr]struct{}
	// PublicDNSQueries and PublicResolvers split Google-style public
	// ranges (Table 4).
	PublicDNSQueries uint64
	// MinimizedQueries counts queries that look QNAME-minimized: NS
	// queries for names at most one label deeper than the zone cut under
	// the configured origin (the paper verified Google's Dec-2019 rollout
	// by inspecting query names this way, §4.2.1).
	MinimizedQueries uint64
}

func newProviderAgg() *ProviderAgg {
	return &ProviderAgg{
		ByType:    make(map[dnswire.Type]uint64),
		EDNSSizes: stats.NewHistogram(),
		Resolvers: make(map[netip.Addr]struct{}),
	}
}

// ResolverCounts summarizes a resolver set.
type ResolverCounts struct {
	Total, V4, V6, Public int
}

// ResolverCounts derives Table-6-style counts; publicFn marks public-DNS
// addresses.
func (pa *ProviderAgg) ResolverCounts(publicFn func(netip.Addr) bool) ResolverCounts {
	var rc ResolverCounts
	for a := range pa.Resolvers {
		rc.Total++
		if a.Is4() || a.Is4In6() {
			rc.V4++
		} else {
			rc.V6++
		}
		if publicFn != nil && publicFn(a) {
			rc.Public++
		}
	}
	return rc
}

// rttKey identifies a (resolver, server) pair for RTT samples.
type rttKey struct {
	Client netip.Addr
	Server netip.Addr
}

// Aggregates is the full analysis result.
type Aggregates struct {
	Total      uint64
	Valid      uint64
	ByProvider map[astrie.Provider]*ProviderAgg
	// ASes is the set of source AS numbers seen.
	ASes map[uint32]struct{}
	// AllResolvers is the global distinct source set.
	AllResolvers map[netip.Addr]struct{}
	// FocusQueries counts per-(client,server,family) queries for clients
	// of the focus provider (Figure 5a).
	FocusQueries map[rttKey]*FamilyCount
	// RTTs sketches TCP-handshake RTT samples per (client, server) for
	// focus-provider clients (Figure 5b). A fixed-size deterministic
	// reservoir rather than a raw sample slice, so per-key memory is
	// bounded no matter how long the capture runs; medians stay within
	// ~0.5% and shard merges stay order-insensitive.
	RTTs map[rttKey]*stats.DurationReservoir
	// Hourly counts queries per capture hour (Unix time / 3600) — the
	// diurnal series the paper's week-long snapshots average over.
	Hourly map[int64]uint64
	// TCPResponses counts matched responses that came over TCP.
	TCPResponses uint64
	// DroppedSegments counts out-of-order TCP segments discarded because a
	// stream's reassembly buffer was full — silent data loss otherwise.
	DroppedSegments uint64
}

// FamilyCount splits query counts by IP family.
type FamilyCount struct {
	V4, V6 uint64
}

// CloudShare returns the five providers' combined share of all queries.
func (ag *Aggregates) CloudShare() float64 {
	var cloud uint64
	for p, pa := range ag.ByProvider {
		if p.IsCloud() {
			cloud += pa.Queries
		}
	}
	return stats.Ratio(cloud, ag.Total)
}

// Provider returns (allocating) the aggregate for p.
func (ag *Aggregates) Provider(p astrie.Provider) *ProviderAgg {
	pa, ok := ag.ByProvider[p]
	if !ok {
		pa = newProviderAgg()
		ag.ByProvider[p] = pa
	}
	return pa
}

// pendingQuery remembers query attributes until its response arrives.
// Stored by value in the pending map so parking a query costs no heap
// allocation on the hot path.
type pendingQuery struct {
	src       int32 // the query source's row in the analyzer's source table
	qtype     dnswire.Type
	v6        bool
	tcp       bool
	minimized bool
	edns      int // advertised size, 0 = none
}

// source is one row of the analyzer's source table: a query source
// address, what the registry says about it, and whether finalize has
// already put it in the resolver and AS sets.
type source struct {
	addr    netip.Addr
	class   astrie.Class
	counted bool
}

// msgMeta is everything the analyzer consumes from one DNS message:
// decode reduces a packet to this struct before any accounting happens.
// The decoder differential test holds it equal, field by field, to a
// reduction of the full dnswire.Unpack parse.
type msgMeta struct {
	id        uint16
	response  bool
	truncated bool
	rcode     dnswire.RCode // extended RCODE bits folded in, like Unpack
	qtype     dnswire.Type  // first question's type, 0 if no question
	udpSize   int           // advertised EDNS(0) size, 0 = no OPT
	minimized bool          // §4.2.1 QNAME-minimization heuristic verdict
}

// decode reduces one raw DNS payload to msgMeta, reporting ok=false for
// anything dnswire.Unpack would reject. It is a View walk that validates
// the message and reads the consumed fields without materializing
// sections.
func (a *Analyzer) decode(payload []byte) (msgMeta, bool) {
	v := &a.view
	if err := v.Reset(payload); err != nil {
		return msgMeta{}, false
	}
	if err := v.Validate(); err != nil {
		return msgMeta{}, false
	}
	rcode, _ := v.FullRCode() // walk already clean, cannot fail
	m := msgMeta{
		id:        v.ID(),
		response:  v.Response(),
		truncated: v.Truncated(),
		rcode:     rcode,
	}
	qtype, _, err := v.QuestionType()
	if err == nil {
		m.qtype = qtype
		if a.origin != "" && qtype == dnswire.TypeNS {
			// Only this rare shape needs the qname materialized; it lands
			// in the reusable scratch buffer and is promoted to a string
			// through the shard-local intern table.
			name, _, _, qerr := v.Question(a.scratch[:0])
			if qerr == nil {
				a.scratch = name // keep the grown capacity for the next packet
				m.minimized = a.looksMinimized(dnswire.Question{
					Name: a.names.intern(name), Type: qtype,
				})
			}
		}
	} else if err != dnswire.ErrNoQuestion {
		return msgMeta{}, false
	}
	if info, ok, _ := v.EDNS(); ok {
		m.udpSize = int(info.UDPSize)
	}
	return m, true
}

// internTable caches qname strings keyed by their byte form so decode
// can look a scratch buffer up without allocating (the compiler
// elides the string conversion in map reads). Analyzers are shard-local,
// so no locks; the entry cap bounds memory against adversarial captures
// full of unique NS names — on overflow the string is still returned,
// just not cached.
type internTable struct {
	m map[string]string
}

// maxInternedNames bounds the table; 64k distinct minimization-candidate
// names is far beyond any zone's delegation churn within one capture.
const maxInternedNames = 1 << 16

func (t *internTable) intern(b []byte) string {
	if s, ok := t.m[string(b)]; ok {
		return s
	}
	s := string(b)
	if t.m == nil {
		t.m = make(map[string]string, 64)
	}
	if len(t.m) < maxInternedNames {
		t.m[s] = s
	}
	return s
}

// looksMinimized applies the §4.2.1 name-shape heuristic.
func (a *Analyzer) looksMinimized(q dnswire.Question) bool {
	if a.origin == "" {
		return false
	}
	return q.Type == dnswire.TypeNS &&
		dnswire.IsSubdomain(q.Name, a.origin) &&
		labelCount(q.Name) <= labelCount(a.origin)+2 &&
		dnswire.CanonicalName(q.Name) != a.origin
}

// labelCount is dnswire.CountLabels without the label slice: this runs for
// every NS query of a capture, and splitting the name only to count the
// pieces was a third of everything the analyzer allocated.
func labelCount(name string) int {
	if name == "" || name == "." {
		return 0
	}
	return strings.Count(strings.TrimSuffix(name, "."), ".") + 1
}

// tcpStream reassembles one direction of a TCP connection in sequence
// order, tolerating out-of-order delivery, retransmissions and overlaps
// (real captures have all three, even if the synthetic generator emits
// segments in order).
type tcpStream struct {
	expected uint32 // next absolute sequence number we want
	synced   bool
	buf      []byte            // contiguous reassembled payload
	pending  map[uint32][]byte // out-of-order segments by sequence
	// drops, when set, counts future segments discarded because pending
	// was full (Aggregates.DroppedSegments).
	drops *uint64
	// pool, when set, recycles the copies made for parked segments; a nil
	// pool (the zero value, as unit tests construct) falls back to plain
	// allocation.
	pool *segmentPool
}

// segmentPool is an analyzer-local free list for the byte copies TCP
// reassembly must make of out-of-order segments. Each Analyzer owns one
// and is single-goroutine, so unlike sync.Pool there is no locking and
// no GC-driven eviction. Oversized or surplus buffers are simply not
// retained.
type segmentPool struct {
	free [][]byte
}

const (
	// maxPooledBuffers caps the free list; with maxPendingSegments=64
	// per-direction parking, 128 retained buffers cover two full streams.
	maxPooledBuffers = 128
	// maxPooledBufCap keeps pathological jumbo buffers from pinning
	// memory in the pool.
	maxPooledBufCap = 64 << 10
)

// get returns an empty buffer with whatever capacity was recycled, or nil
// (letting append allocate) when the pool is empty or unset.
func (p *segmentPool) get() []byte {
	if p == nil || len(p.free) == 0 {
		return nil
	}
	b := p.free[len(p.free)-1]
	p.free = p.free[:len(p.free)-1]
	return b
}

// put recycles b's backing array. Zero-capacity, oversized, and surplus
// buffers are dropped.
func (p *segmentPool) put(b []byte) {
	if p == nil || cap(b) == 0 || cap(b) > maxPooledBufCap || len(p.free) >= maxPooledBuffers {
		return
	}
	p.free = append(p.free, b[:0])
}

// release returns the stream's buffers to the pool when its connection is
// torn down.
func (s *tcpStream) release() {
	if s.pool == nil {
		return
	}
	s.pool.put(s.buf)
	s.buf = nil
	for seq, b := range s.pending {
		s.pool.put(b)
		delete(s.pending, seq)
	}
}

// maxPendingSegments bounds each stream's out-of-order buffer; segments
// arriving while it is full are dropped and counted.
const maxPendingSegments = 64

// push ingests one data segment and returns true if new contiguous bytes
// became available in s.buf.
func (s *tcpStream) push(seq uint32, payload []byte) bool {
	if len(payload) == 0 {
		return false
	}
	if !s.synced {
		// Mid-stream attach: adopt the first segment's position.
		s.expected = seq
		s.synced = true
	}
	progressed := false
	// recycle holds a parked buffer whose bytes the switch below just
	// consumed into s.buf; parked segments can never re-enter the parking
	// branch (their sequence is at or before expected by construction), so
	// returning them to the pool after the switch is safe.
	var recycle []byte
	for {
		switch {
		case seq == s.expected:
			s.buf = append(s.buf, payload...)
			s.expected += uint32(len(payload))
			progressed = true
		case seqBefore(seq, s.expected):
			// Retransmission or overlap: keep only the unseen suffix.
			skip := s.expected - seq
			if uint32(len(payload)) > skip {
				s.buf = append(s.buf, payload[skip:]...)
				s.expected += uint32(len(payload)) - skip
				progressed = true
			}
		default:
			// Future segment: park a pooled copy (bounded).
			if s.pending == nil {
				s.pending = make(map[uint32][]byte)
			}
			if old, parked := s.pending[seq]; parked {
				s.pool.put(old)
				s.pending[seq] = append(s.pool.get(), payload...)
			} else if len(s.pending) < maxPendingSegments {
				s.pending[seq] = append(s.pool.get(), payload...)
			} else if s.drops != nil {
				*s.drops++
			}
		}
		if recycle != nil {
			s.pool.put(recycle)
			recycle = nil
		}
		// Try to drain parked segments that are now due.
		next, ok := s.pending[s.expected]
		if !ok {
			// Also handle parked overlaps that start before expected.
			found := false
			for ps, pp := range s.pending {
				if seqBefore(ps, s.expected) && seqBefore(s.expected, ps+uint32(len(pp))) {
					next, ok, found = pp, true, true
					seq, payload = ps, pp
					delete(s.pending, ps)
					break
				}
			}
			if !found {
				return progressed
			}
			recycle = next
			continue
		}
		seq, payload = s.expected, next
		recycle = next
		delete(s.pending, s.expected)
	}
}

// seqBefore compares sequence numbers with wraparound (RFC 793 style).
func seqBefore(a, b uint32) bool { return int32(a-b) < 0 }

// syncTo pins the stream start (from the handshake's ISN+1).
func (s *tcpStream) syncTo(seq uint32) {
	if !s.synced {
		s.expected = seq
		s.synced = true
	}
}

// tcpConn tracks one TCP connection's handshake and payload reassembly.
type tcpConn struct {
	synAckAt  time.Time
	rttStored bool
	c2s, s2c  tcpStream
}

// Analyzer streams packets into Aggregates. Not safe for concurrent use;
// run one Analyzer per trace (shard by file and Merge the results).
type Analyzer struct {
	reg    *astrie.Registry
	parser *layers.Parser
	agg    *Aggregates
	focus  astrie.Provider
	origin string // zone origin for the Q-min heuristic ("" disables)

	// Decode machinery: the reusable message view, the scratch buffer
	// qnames are appended into, and the qname intern table.
	view    dnswire.View
	scratch []byte
	names   internTable
	// segPool recycles TCP reassembly copies across this analyzer's
	// connections.
	segPool segmentPool

	pending map[pendingKey]pendingQuery
	conns   map[connKey]*tcpConn
	curTS   time.Time

	// The source table classifies each source address once, on first
	// sight, instead of walking the registry per packet. It is a cache of
	// registry answers plus the counted bit, so it is never checkpointed: a
	// restored analyzer refills it, and finalize's set inserts are
	// idempotent.
	srcIndex map[netip.Addr]int32
	sources  []source

	// MarshalState's sorted resolver lists, global and per provider.
	allResolvers addrList
	resolvers    map[astrie.Provider]*addrList

	// Errors tolerated silently (malformed packets are counted, like
	// ENTRADA's loader, not fatal).
	MalformedPackets uint64
	UnmatchedResp    uint64
}

// maxPendingQueries bounds the query→response join table; see noteQuery.
const (
	maxPendingQueries = 1 << 20
	pendingFlushBatch = 1 << 10
)

type pendingKey struct {
	client netip.AddrPort
	server netip.AddrPort
	id     uint16
	tcp    bool
}

type connKey struct {
	client netip.AddrPort
	server netip.AddrPort
}

// Option configures an Analyzer.
type Option func(*Analyzer)

// WithFocusProvider selects the provider whose per-(client,server) query
// counts and RTTs are collected (default Facebook, for Figures 5 and 8).
func WithFocusProvider(p astrie.Provider) Option {
	return func(a *Analyzer) { a.focus = p }
}

// WithZoneOrigin tells the analyzer which zone the capture's server is
// authoritative for, enabling the QNAME-minimization heuristic: an NS
// query whose name sits at most two labels below the origin (one for flat
// registries, two for .nz-style category registrations) is counted as
// minimized-looking.
func WithZoneOrigin(origin string) Option {
	return func(a *Analyzer) { a.origin = dnswire.CanonicalName(origin) }
}

// NewAnalyzer builds an analyzer classifying addresses with reg.
func NewAnalyzer(reg *astrie.Registry, opts ...Option) *Analyzer {
	a := &Analyzer{
		reg:    reg,
		parser: layers.NewParser(),
		agg: &Aggregates{
			ByProvider:   make(map[astrie.Provider]*ProviderAgg),
			ASes:         make(map[uint32]struct{}),
			AllResolvers: make(map[netip.Addr]struct{}),
			FocusQueries: make(map[rttKey]*FamilyCount),
			RTTs:         make(map[rttKey]*stats.DurationReservoir),
			Hourly:       make(map[int64]uint64),
		},
		focus:    astrie.ProviderFacebook,
		pending:  make(map[pendingKey]pendingQuery),
		conns:    make(map[connKey]*tcpConn),
		srcIndex: make(map[netip.Addr]int32),
	}
	for _, o := range opts {
		o(a)
	}
	return a
}

// AnalyzeReader drains a packet reader (classic pcap or pcapng — use
// pcapio.Open to sniff the format).
func (a *Analyzer) AnalyzeReader(r pcapio.PacketReader) error {
	return pcapio.ForEachPacket(r, func(pkt pcapio.Packet) error {
		a.HandlePacket(pkt.Timestamp, pkt.Data)
		return nil
	})
}

// HandlePacket processes one captured frame. Malformed frames are counted
// and skipped.
func (a *Analyzer) HandlePacket(ts time.Time, frame []byte) {
	a.curTS = ts
	flow, err := a.parser.Decode(frame)
	if err != nil {
		a.MalformedPackets++
		return
	}
	switch flow.Proto {
	case layers.IPProtoUDP:
		a.handleUDP(flow, a.parser.Payload)
	case layers.IPProtoTCP:
		a.handleTCP(ts, flow, &a.parser.TCP, a.parser.Payload)
	}
}

// handleUDP processes one UDP datagram (a whole DNS message).
func (a *Analyzer) handleUDP(flow layers.Flow, payload []byte) {
	if flow.DstPort == 53 {
		m, ok := a.decode(payload)
		if !ok || m.response {
			a.MalformedPackets++
			return
		}
		a.noteQuery(flow, m, false)
		return
	}
	if flow.SrcPort == 53 {
		m, ok := a.decode(payload)
		if !ok || !m.response {
			a.MalformedPackets++
			return
		}
		a.noteResponse(flow, m, false)
	}
}

// handleTCP processes one TCP segment: handshake timing and stream
// reassembly of framed DNS messages.
func (a *Analyzer) handleTCP(ts time.Time, flow layers.Flow, tcp *layers.TCP, payload []byte) {
	var key connKey
	toServer := flow.DstPort == 53
	if toServer {
		key = connKey{
			client: netip.AddrPortFrom(flow.Src, flow.SrcPort),
			server: netip.AddrPortFrom(flow.Dst, flow.DstPort),
		}
	} else if flow.SrcPort == 53 {
		key = connKey{
			client: netip.AddrPortFrom(flow.Dst, flow.DstPort),
			server: netip.AddrPortFrom(flow.Src, flow.SrcPort),
		}
	} else {
		return
	}
	conn, ok := a.conns[key]
	if !ok {
		conn = &tcpConn{}
		conn.c2s.drops = &a.agg.DroppedSegments
		conn.s2c.drops = &a.agg.DroppedSegments
		conn.c2s.pool = &a.segPool
		conn.s2c.pool = &a.segPool
		a.conns[key] = conn
	}

	switch {
	case tcp.SYN() && tcp.ACK():
		conn.synAckAt = ts
		conn.s2c.syncTo(tcp.Seq + 1)
	case tcp.SYN():
		conn.c2s.syncTo(tcp.Seq + 1)
	case tcp.ACK() && toServer && len(payload) == 0 && !conn.rttStored && !conn.synAckAt.IsZero():
		// First bare ACK from the client completes the handshake:
		// ts - t(SYN-ACK) estimates the client's RTT (§4.3).
		rtt := ts.Sub(conn.synAckAt)
		conn.rttStored = true
		client := key.client.Addr()
		if a.sources[a.sourceOf(client)].class.Provider == a.focus {
			k := rttKey{Client: client, Server: key.server.Addr()}
			r := a.agg.RTTs[k]
			if r == nil {
				r = &stats.DurationReservoir{}
				a.agg.RTTs[k] = r
			}
			r.Observe(rtt)
		}
	}
	if len(payload) > 0 {
		if toServer {
			if conn.c2s.push(tcp.Seq, payload) {
				conn.c2s.buf = a.drainFrames(conn.c2s.buf, flow, false)
			}
		} else {
			if conn.s2c.push(tcp.Seq, payload) {
				conn.s2c.buf = a.drainFrames(conn.s2c.buf, flow, true)
			}
		}
	}
	if tcp.FIN() || tcp.RST() {
		if tcp.FIN() && !toServer {
			conn.c2s.release()
			conn.s2c.release()
			delete(a.conns, key)
		}
	}
}

// drainFrames parses complete length-prefixed DNS messages out of buf.
func (a *Analyzer) drainFrames(buf []byte, flow layers.Flow, response bool) []byte {
	for len(buf) >= 2 {
		n := int(buf[0])<<8 | int(buf[1])
		if len(buf) < 2+n {
			break
		}
		m, ok := a.decode(buf[2 : 2+n])
		if !ok {
			a.MalformedPackets++
		} else if response && m.response {
			a.noteResponse(flow, m, true)
		} else if !response && !m.response {
			a.noteQuery(flow, m, true)
		} else {
			a.MalformedPackets++
		}
		buf = buf[2+n:]
	}
	return buf
}

// sourceOf returns addr's row in the source table, classifying it on
// first sight.
func (a *Analyzer) sourceOf(addr netip.Addr) int32 {
	if i, ok := a.srcIndex[addr]; ok {
		return i
	}
	i := int32(len(a.sources))
	a.sources = append(a.sources, source{addr: addr, class: a.reg.Classify(addr)})
	a.srcIndex[addr] = i
	return i
}

// noteQuery records a query and parks it awaiting its response.
func (a *Analyzer) noteQuery(flow layers.Flow, m msgMeta, tcp bool) {
	src := a.sourceOf(flow.Src)
	provider := a.sources[src].class.Provider

	pq := pendingQuery{
		src:       src,
		qtype:     m.qtype,
		v6:        flow.IsIPv6(),
		tcp:       tcp,
		edns:      m.udpSize,
		minimized: m.minimized,
	}
	key := pendingKey{
		client: netip.AddrPortFrom(flow.Src, flow.SrcPort),
		server: netip.AddrPortFrom(flow.Dst, flow.DstPort),
		id:     m.id,
		tcp:    tcp,
	}
	if old, dup := a.pending[key]; dup {
		// Retransmission: count the earlier instance as an unanswered
		// query now, keep the newer one pending.
		a.finalize(old, nil)
	}
	// Bound the join table: a capture with massive response loss must not
	// grow memory without limit — flush arbitrary oldest entries as
	// unanswered, like ENTRADA's bounded join windows.
	if len(a.pending) >= maxPendingQueries {
		for k, old := range a.pending {
			a.finalize(old, nil)
			delete(a.pending, k)
			if len(a.pending) < maxPendingQueries-pendingFlushBatch {
				break
			}
		}
	}
	a.pending[key] = pq
	if !a.curTS.IsZero() {
		a.agg.Hourly[a.curTS.Unix()/3600]++
	}

	// Per-server focus accounting happens at query time.
	if provider == a.focus {
		k := rttKey{Client: flow.Src, Server: flow.Dst}
		fc, ok := a.agg.FocusQueries[k]
		if !ok {
			fc = &FamilyCount{}
			a.agg.FocusQueries[k] = fc
		}
		if pq.v6 {
			fc.V6++
		} else {
			fc.V4++
		}
	}
}

// noteResponse joins a response to its query and finalizes counters.
func (a *Analyzer) noteResponse(flow layers.Flow, m msgMeta, tcp bool) {
	key := pendingKey{
		client: netip.AddrPortFrom(flow.Dst, flow.DstPort),
		server: netip.AddrPortFrom(flow.Src, flow.SrcPort),
		id:     m.id,
		tcp:    tcp,
	}
	pq, ok := a.pending[key]
	if !ok {
		a.UnmatchedResp++
		return
	}
	delete(a.pending, key)
	a.finalize(pq, &m)
}

// finalize folds one (query, response?) pair into the aggregates.
func (a *Analyzer) finalize(pq pendingQuery, resp *msgMeta) {
	ag := a.agg
	ag.Total++
	src := &a.sources[pq.src]
	pa := ag.Provider(src.class.Provider)
	pa.Queries++
	pa.ByType[pq.qtype]++
	if pq.v6 {
		pa.V6++
	}
	if pq.tcp {
		pa.TCP++
	} else {
		pa.EDNSSizes.Add(pq.edns)
	}
	if src.class.Public {
		pa.PublicDNSQueries++
	}
	if pq.minimized {
		pa.MinimizedQueries++
	}
	if !src.counted {
		src.counted = true
		pa.Resolvers[src.addr] = struct{}{}
		ag.AllResolvers[src.addr] = struct{}{}
		if src.class.Known {
			ag.ASes[src.class.ASN] = struct{}{}
		}
	}
	if resp == nil {
		// Unanswered queries count as valid (the paper's junk definition
		// needs an RCODE; missing responses are rare in our traces).
		ag.Valid++
		return
	}
	if resp.rcode == dnswire.RCodeNoError {
		ag.Valid++
	} else {
		pa.Junk++
	}
	if pq.tcp {
		ag.TCPResponses++
	} else {
		pa.UDPResponses++
		if resp.truncated {
			pa.TruncatedUDP++
		}
	}
}

// DroppedSegments reports the TCP reassembly drops counted so far; unlike
// the MalformedPackets field it lives in the aggregates (it is part of the
// merged result), so concurrent ingestion engines read it through this
// accessor for progress reporting.
func (a *Analyzer) DroppedSegments() uint64 { return a.agg.DroppedSegments }

// Finish flushes queries still awaiting responses and returns the
// aggregates. Call exactly once after the last packet.
func (a *Analyzer) Finish() *Aggregates {
	for key, pq := range a.pending {
		a.finalize(pq, nil)
		delete(a.pending, key)
	}
	return a.agg
}

// MedianRTTs computes per-(client,server) median RTTs from the sketches.
func (ag *Aggregates) MedianRTTs() map[rttKey]time.Duration {
	out := make(map[rttKey]time.Duration, len(ag.RTTs))
	for k, r := range ag.RTTs {
		out[k] = r.Median()
	}
	return out
}

// String summarizes the aggregates.
func (ag *Aggregates) String() string {
	s := fmt.Sprintf("entrada: %d queries (%.1f%% valid), %d resolvers, %d ASes, cloud share %.1f%%",
		ag.Total, 100*stats.Ratio(ag.Valid, ag.Total), len(ag.AllResolvers), len(ag.ASes), 100*ag.CloudShare())
	if ag.DroppedSegments > 0 {
		s += fmt.Sprintf(", %d dropped TCP segments", ag.DroppedSegments)
	}
	return s
}
