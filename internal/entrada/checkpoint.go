package entrada

import (
	"encoding/json"
	"fmt"
	"net/netip"
	"sort"
	"time"

	"dnscentral/internal/astrie"
	"dnscentral/internal/dnswire"
	"dnscentral/internal/stats"
)

// Checkpoint serialization: the complete analyzer state — aggregates,
// the query→response join table, and in-flight TCP reassembly — as
// versioned, deterministic JSON. Determinism matters twice over: the
// golden test pins the encoding with a SHA so accidental format drift is
// caught, and the resume-exactness guarantee (kill -9 + restore produces
// byte-identical final aggregates) needs every serialize of the same
// state to be the same bytes. Hence all maps are flattened to sorted
// slices and nothing is stored as a float.

// CheckpointVersion is the serialization format version; Restore rejects
// anything else.
const CheckpointVersion = 1

type analyzerState struct {
	Version   int    `json:"version"`
	Origin    string `json:"origin,omitempty"`
	Focus     uint8  `json:"focus"`
	Malformed uint64 `json:"malformed,omitempty"`
	Unmatched uint64 `json:"unmatched,omitempty"`
	// CurTS is the last packet timestamp as UnixNano; CurTSSet
	// distinguishes "never saw a packet" from an actual zero instant.
	CurTS    int64          `json:"cur_ts,omitempty"`
	CurTSSet bool           `json:"cur_ts_set,omitempty"`
	Agg      aggState       `json:"agg"`
	Pending  []pendingState `json:"pending,omitempty"`
	Conns    []connState    `json:"conns,omitempty"`
}

type aggState struct {
	Total           uint64          `json:"total"`
	Valid           uint64          `json:"valid"`
	Providers       []providerState `json:"providers,omitempty"`
	ASes            []uint32        `json:"ases,omitempty"`
	AllResolvers    []string        `json:"all_resolvers,omitempty"`
	Focus           []focusState    `json:"focus,omitempty"`
	RTTs            []rttState      `json:"rtts,omitempty"`
	Hourly          []int64Count    `json:"hourly,omitempty"`
	TCPResponses    uint64          `json:"tcp_responses,omitempty"`
	DroppedSegments uint64          `json:"dropped_segments,omitempty"`
}

type providerState struct {
	ID               uint8         `json:"id"`
	Queries          uint64        `json:"queries"`
	Junk             uint64        `json:"junk,omitempty"`
	V6               uint64        `json:"v6,omitempty"`
	TCP              uint64        `json:"tcp,omitempty"`
	ByType           []uint16Count `json:"by_type,omitempty"`
	EDNSSizes        []intCount    `json:"edns_sizes,omitempty"`
	UDPResponses     uint64        `json:"udp_responses,omitempty"`
	TruncatedUDP     uint64        `json:"truncated_udp,omitempty"`
	Resolvers        []string      `json:"resolvers,omitempty"`
	PublicDNSQueries uint64        `json:"public_dns_queries,omitempty"`
	MinimizedQueries uint64        `json:"minimized_queries,omitempty"`
}

type uint16Count struct {
	K uint16 `json:"k"`
	N uint64 `json:"n"`
}

type intCount struct {
	K int    `json:"k"`
	N uint64 `json:"n"`
}

type int64Count struct {
	K int64  `json:"k"`
	N uint64 `json:"n"`
}

type focusState struct {
	Client string `json:"client"`
	Server string `json:"server"`
	V4     uint64 `json:"v4,omitempty"`
	V6     uint64 `json:"v6,omitempty"`
}

type rttState struct {
	Client  string        `json:"client"`
	Server  string        `json:"server"`
	Buckets []bucketCount `json:"buckets"`
}

type bucketCount struct {
	I int32  `json:"i"`
	N uint64 `json:"n"`
}

type pendingState struct {
	Client    string `json:"client"` // AddrPort
	Server    string `json:"server"` // AddrPort
	ID        uint16 `json:"id"`
	TCP       bool   `json:"tcp,omitempty"`
	Provider  uint8  `json:"provider"`
	QType     uint16 `json:"qtype"`
	V6        bool   `json:"v6,omitempty"`
	QTCP      bool   `json:"qtcp,omitempty"`
	EDNS      int    `json:"edns,omitempty"`
	Public    bool   `json:"public,omitempty"`
	Minimized bool   `json:"minimized,omitempty"`
	Addr      string `json:"addr"` // query source address
}

type connState struct {
	Client    string      `json:"client"` // AddrPort
	Server    string      `json:"server"` // AddrPort
	SynAckAt  int64       `json:"syn_ack_at,omitempty"`
	SynAckSet bool        `json:"syn_ack_set,omitempty"`
	RTTStored bool        `json:"rtt_stored,omitempty"`
	C2S       streamState `json:"c2s"`
	S2C       streamState `json:"s2c"`
}

type streamState struct {
	Expected uint32     `json:"expected,omitempty"`
	Synced   bool       `json:"synced,omitempty"`
	Buf      []byte     `json:"buf,omitempty"` // base64 via encoding/json
	Pending  []segState `json:"pending,omitempty"`
}

type segState struct {
	Seq  uint32 `json:"seq"`
	Data []byte `json:"data"`
}

func sortedAddrs(set map[netip.Addr]struct{}) []string {
	out := make([]string, 0, len(set))
	for a := range set {
		out = append(out, a.String())
	}
	sort.Strings(out)
	return out
}

// addrList remembers what sortedAddrs returned for one of the analyzer's
// resolver sets at the last MarshalState. Those sets only ever gain members
// (finalize inserts, nothing deletes), so a set of unchanged size is an
// unchanged set and its list is used again. Resolvers are most of a
// checkpoint, their population stops growing early in a capture, and a
// sharded run pays for every list once per shard.
type addrList struct {
	size   int
	sorted []string
}

func (l *addrList) of(set map[netip.Addr]struct{}) []string {
	if l.size != len(set) {
		l.sorted, l.size = sortedAddrs(set), len(set)
	}
	return l.sorted
}

func histState(h *stats.Histogram) []intCount {
	vals := h.Values() // already sorted ascending
	out := make([]intCount, 0, len(vals))
	for _, v := range vals {
		out = append(out, intCount{K: v, N: h.Count(v)})
	}
	return out
}

func streamToState(s *tcpStream) streamState {
	st := streamState{Expected: s.expected, Synced: s.synced}
	if len(s.buf) > 0 {
		st.Buf = append([]byte(nil), s.buf...)
	}
	if len(s.pending) > 0 {
		st.Pending = make([]segState, 0, len(s.pending))
		for seq, b := range s.pending {
			st.Pending = append(st.Pending, segState{Seq: seq, Data: append([]byte(nil), b...)})
		}
		sort.Slice(st.Pending, func(i, j int) bool { return st.Pending[i].Seq < st.Pending[j].Seq })
	}
	return st
}

// MarshalState serializes the analyzer's complete in-flight state —
// aggregates, pending query joins, TCP reassembly — as deterministic
// versioned JSON. The analyzer remains usable; nothing is flushed or
// finalized. The same state always encodes to the same bytes.
func (a *Analyzer) MarshalState() ([]byte, error) {
	st := analyzerState{
		Version:   CheckpointVersion,
		Origin:    a.origin,
		Focus:     uint8(a.focus),
		Malformed: a.MalformedPackets,
		Unmatched: a.UnmatchedResp,
	}
	if !a.curTS.IsZero() {
		st.CurTS = a.curTS.UnixNano()
		st.CurTSSet = true
	}

	ag := a.agg
	st.Agg = aggState{
		Total:           ag.Total,
		Valid:           ag.Valid,
		AllResolvers:    a.allResolvers.of(ag.AllResolvers),
		TCPResponses:    ag.TCPResponses,
		DroppedSegments: ag.DroppedSegments,
	}
	if a.resolvers == nil {
		a.resolvers = make(map[astrie.Provider]*addrList)
	}
	for p, pa := range ag.ByProvider {
		list := a.resolvers[p]
		if list == nil {
			list = &addrList{}
			a.resolvers[p] = list
		}
		ps := providerState{
			ID:               uint8(p),
			Queries:          pa.Queries,
			Junk:             pa.Junk,
			V6:               pa.V6,
			TCP:              pa.TCP,
			EDNSSizes:        histState(pa.EDNSSizes),
			UDPResponses:     pa.UDPResponses,
			TruncatedUDP:     pa.TruncatedUDP,
			Resolvers:        list.of(pa.Resolvers),
			PublicDNSQueries: pa.PublicDNSQueries,
			MinimizedQueries: pa.MinimizedQueries,
		}
		for t, n := range pa.ByType {
			ps.ByType = append(ps.ByType, uint16Count{K: uint16(t), N: n})
		}
		sort.Slice(ps.ByType, func(i, j int) bool { return ps.ByType[i].K < ps.ByType[j].K })
		st.Agg.Providers = append(st.Agg.Providers, ps)
	}
	sort.Slice(st.Agg.Providers, func(i, j int) bool { return st.Agg.Providers[i].ID < st.Agg.Providers[j].ID })

	for asn := range ag.ASes {
		st.Agg.ASes = append(st.Agg.ASes, asn)
	}
	sort.Slice(st.Agg.ASes, func(i, j int) bool { return st.Agg.ASes[i] < st.Agg.ASes[j] })

	for k, fc := range ag.FocusQueries {
		st.Agg.Focus = append(st.Agg.Focus, focusState{
			Client: k.Client.String(), Server: k.Server.String(), V4: fc.V4, V6: fc.V6,
		})
	}
	sort.Slice(st.Agg.Focus, func(i, j int) bool {
		a, b := st.Agg.Focus[i], st.Agg.Focus[j]
		if a.Client != b.Client {
			return a.Client < b.Client
		}
		return a.Server < b.Server
	})

	for k, r := range ag.RTTs {
		rs := rttState{Client: k.Client.String(), Server: k.Server.String()}
		r.EachBucket(func(i int32, n uint64) {
			rs.Buckets = append(rs.Buckets, bucketCount{I: i, N: n})
		})
		st.Agg.RTTs = append(st.Agg.RTTs, rs)
	}
	sort.Slice(st.Agg.RTTs, func(i, j int) bool {
		a, b := st.Agg.RTTs[i], st.Agg.RTTs[j]
		if a.Client != b.Client {
			return a.Client < b.Client
		}
		return a.Server < b.Server
	})

	for h, n := range ag.Hourly {
		st.Agg.Hourly = append(st.Agg.Hourly, int64Count{K: h, N: n})
	}
	sort.Slice(st.Agg.Hourly, func(i, j int) bool { return st.Agg.Hourly[i].K < st.Agg.Hourly[j].K })

	for k, pq := range a.pending {
		src := &a.sources[pq.src]
		st.Pending = append(st.Pending, pendingState{
			Client:    k.client.String(),
			Server:    k.server.String(),
			ID:        k.id,
			TCP:       k.tcp,
			Provider:  uint8(src.class.Provider),
			QType:     uint16(pq.qtype),
			V6:        pq.v6,
			QTCP:      pq.tcp,
			EDNS:      pq.edns,
			Public:    src.class.Public,
			Minimized: pq.minimized,
			Addr:      src.addr.String(),
		})
	}
	sort.Slice(st.Pending, func(i, j int) bool {
		a, b := st.Pending[i], st.Pending[j]
		if a.Client != b.Client {
			return a.Client < b.Client
		}
		if a.Server != b.Server {
			return a.Server < b.Server
		}
		if a.ID != b.ID {
			return a.ID < b.ID
		}
		return !a.TCP && b.TCP
	})

	for k, c := range a.conns {
		cs := connState{
			Client:    k.client.String(),
			Server:    k.server.String(),
			RTTStored: c.rttStored,
			C2S:       streamToState(&c.c2s),
			S2C:       streamToState(&c.s2c),
		}
		if !c.synAckAt.IsZero() {
			cs.SynAckAt = c.synAckAt.UnixNano()
			cs.SynAckSet = true
		}
		st.Conns = append(st.Conns, cs)
	}
	sort.Slice(st.Conns, func(i, j int) bool {
		a, b := st.Conns[i], st.Conns[j]
		if a.Client != b.Client {
			return a.Client < b.Client
		}
		return a.Server < b.Server
	})

	return json.Marshal(st)
}

func parseAddr(s string) (netip.Addr, error) {
	a, err := netip.ParseAddr(s)
	if err != nil {
		return netip.Addr{}, fmt.Errorf("entrada: checkpoint address %q: %w", s, err)
	}
	return a, nil
}

func parseAddrPort(s string) (netip.AddrPort, error) {
	ap, err := netip.ParseAddrPort(s)
	if err != nil {
		return netip.AddrPort{}, fmt.Errorf("entrada: checkpoint addrport %q: %w", s, err)
	}
	return ap, nil
}

func stateToStream(s *tcpStream, st streamState, drops *uint64, pool *segmentPool) {
	s.expected = st.Expected
	s.synced = st.Synced
	s.drops = drops
	s.pool = pool
	if len(st.Buf) > 0 {
		s.buf = append([]byte(nil), st.Buf...)
	}
	if len(st.Pending) > 0 {
		s.pending = make(map[uint32][]byte, len(st.Pending))
		for _, seg := range st.Pending {
			s.pending[seg.Seq] = append([]byte(nil), seg.Data...)
		}
	}
}

// RestoreAnalyzer rebuilds an analyzer from MarshalState output. The
// registry must be configured identically to the checkpointing run (it
// is not part of the state); feeding the restored analyzer the packets
// after the checkpoint yields aggregates byte-identical to an
// uninterrupted run.
func RestoreAnalyzer(reg *astrie.Registry, data []byte) (*Analyzer, error) {
	var st analyzerState
	if err := json.Unmarshal(data, &st); err != nil {
		return nil, fmt.Errorf("entrada: decoding checkpoint: %w", err)
	}
	if st.Version != CheckpointVersion {
		return nil, fmt.Errorf("entrada: checkpoint version %d, want %d", st.Version, CheckpointVersion)
	}

	opts := []Option{WithFocusProvider(astrie.Provider(st.Focus))}
	if st.Origin != "" {
		opts = append(opts, WithZoneOrigin(st.Origin))
	}
	a := NewAnalyzer(reg, opts...)
	a.MalformedPackets = st.Malformed
	a.UnmatchedResp = st.Unmatched
	if st.CurTSSet {
		a.curTS = time.Unix(0, st.CurTS).UTC()
	}

	ag := a.agg
	ag.Total = st.Agg.Total
	ag.Valid = st.Agg.Valid
	ag.TCPResponses = st.Agg.TCPResponses
	ag.DroppedSegments = st.Agg.DroppedSegments
	for _, ps := range st.Agg.Providers {
		pa := ag.Provider(astrie.Provider(ps.ID))
		pa.Queries = ps.Queries
		pa.Junk = ps.Junk
		pa.V6 = ps.V6
		pa.TCP = ps.TCP
		pa.UDPResponses = ps.UDPResponses
		pa.TruncatedUDP = ps.TruncatedUDP
		pa.PublicDNSQueries = ps.PublicDNSQueries
		pa.MinimizedQueries = ps.MinimizedQueries
		for _, tc := range ps.ByType {
			pa.ByType[dnswire.Type(tc.K)] = tc.N
		}
		for _, ic := range ps.EDNSSizes {
			pa.EDNSSizes.AddN(ic.K, ic.N)
		}
		for _, s := range ps.Resolvers {
			addr, err := parseAddr(s)
			if err != nil {
				return nil, err
			}
			pa.Resolvers[addr] = struct{}{}
		}
	}
	for _, asn := range st.Agg.ASes {
		ag.ASes[asn] = struct{}{}
	}
	for _, s := range st.Agg.AllResolvers {
		addr, err := parseAddr(s)
		if err != nil {
			return nil, err
		}
		ag.AllResolvers[addr] = struct{}{}
	}
	for _, fs := range st.Agg.Focus {
		client, err := parseAddr(fs.Client)
		if err != nil {
			return nil, err
		}
		server, err := parseAddr(fs.Server)
		if err != nil {
			return nil, err
		}
		ag.FocusQueries[rttKey{Client: client, Server: server}] = &FamilyCount{V4: fs.V4, V6: fs.V6}
	}
	for _, rs := range st.Agg.RTTs {
		client, err := parseAddr(rs.Client)
		if err != nil {
			return nil, err
		}
		server, err := parseAddr(rs.Server)
		if err != nil {
			return nil, err
		}
		r := &stats.DurationReservoir{}
		for _, b := range rs.Buckets {
			r.ObserveBucketN(b.I, b.N)
		}
		ag.RTTs[rttKey{Client: client, Server: server}] = r
	}
	for _, hc := range st.Agg.Hourly {
		ag.Hourly[hc.K] = hc.N
	}

	for _, ps := range st.Pending {
		client, err := parseAddrPort(ps.Client)
		if err != nil {
			return nil, err
		}
		server, err := parseAddrPort(ps.Server)
		if err != nil {
			return nil, err
		}
		addr, err := parseAddr(ps.Addr)
		if err != nil {
			return nil, err
		}
		// Provider and Public are classified afresh from the registry,
		// which must match the checkpointing run's.
		a.pending[pendingKey{client: client, server: server, id: ps.ID, tcp: ps.TCP}] = pendingQuery{
			src:       a.sourceOf(addr),
			qtype:     dnswire.Type(ps.QType),
			v6:        ps.V6,
			tcp:       ps.QTCP,
			edns:      ps.EDNS,
			minimized: ps.Minimized,
		}
	}

	for _, cs := range st.Conns {
		client, err := parseAddrPort(cs.Client)
		if err != nil {
			return nil, err
		}
		server, err := parseAddrPort(cs.Server)
		if err != nil {
			return nil, err
		}
		conn := &tcpConn{rttStored: cs.RTTStored}
		if cs.SynAckSet {
			conn.synAckAt = time.Unix(0, cs.SynAckAt).UTC()
		}
		stateToStream(&conn.c2s, cs.C2S, &ag.DroppedSegments, &a.segPool)
		stateToStream(&conn.s2c, cs.S2C, &ag.DroppedSegments, &a.segPool)
		a.conns[connKey{client: client, server: server}] = conn
	}
	return a, nil
}

// QueryCounts is a cheap numeric snapshot of cumulative query totals,
// taken non-destructively mid-run; tumbling windows are the deltas of
// two snapshots at consecutive window boundaries.
type QueryCounts struct {
	// Total counts finalized queries (Aggregates.Total).
	Total uint64
	// ByProvider counts finalized queries per provider.
	ByProvider map[astrie.Provider]uint64
}

// QueryCounts snapshots the analyzer's cumulative counts without
// flushing or otherwise disturbing in-flight state.
func (a *Analyzer) QueryCounts() QueryCounts {
	qc := QueryCounts{
		Total:      a.agg.Total,
		ByProvider: make(map[astrie.Provider]uint64, len(a.agg.ByProvider)),
	}
	for p, pa := range a.agg.ByProvider {
		qc.ByProvider[p] = pa.Queries
	}
	return qc
}
