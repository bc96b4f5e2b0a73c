package workload

import (
	"fmt"
	"math/rand"
	"net/netip"
	"time"

	"dnscentral/internal/anycast"
	"dnscentral/internal/astrie"
	"dnscentral/internal/cloudmodel"
	"dnscentral/internal/dnswire"
	"dnscentral/internal/rdns"
	"dnscentral/internal/stats"
	"dnscentral/internal/telemetry"
	"dnscentral/internal/zonedb"
)

// PacketSink receives generated packets in timestamp order; pcapio.Writer
// satisfies it.
type PacketSink interface {
	WritePacket(ts time.Time, data []byte) error
}

// Config parameterizes one generated trace.
type Config struct {
	Vantage cloudmodel.Vantage
	Week    cloudmodel.Week
	// TotalQueries is the number of query events (cache misses) to
	// generate; the paper's billions scale down to this.
	TotalQueries int
	// ResolverScale scales resolver populations (default 0.02).
	ResolverScale float64
	// LongTailASes is the number of non-cloud ASes (default: scaled from
	// Table 3's AS counts).
	LongTailASes int
	// NumServers splits the vantage across several authoritative server
	// addresses (Table 2: .nl data covers two servers — Figures 5 and 8).
	NumServers int
	// Seed makes the trace reproducible.
	Seed int64
	// ProviderFilter, when non-empty, restricts generation to these
	// providers (used by the Figure 3 monthly harness).
	ProviderFilter []astrie.Provider
	// QminOverride, when non-nil, overrides every provider's QminShare
	// (Figure 3: Google's fleet before/after Dec 2019).
	QminOverride *float64
	// Anomaly injects the Feb-2020 .nz cyclic-dependency event: a flood of
	// repeated A/AAAA queries from Google for two broken domains (§4.2.1).
	Anomaly bool
	// DiurnalAmplitude shapes the time-of-day traffic density (0 = flat,
	// default 0.4: daytime peaks ≈2.3× the nightly trough, per the
	// diurnal patterns the paper compensates for by capturing full weeks).
	DiurnalAmplitude float64
	// Start overrides the trace start time (defaults to the Table 2 week).
	Start time.Time
	// Workers is the generation parallelism: event-index ranges are
	// sharded across this many goroutines and merged back in timestamp
	// order, so the output is byte-identical for any worker count.
	// 0 or 1 generate on a single shard.
	Workers int
	// Telemetry, when set, publishes live generation metrics (events and
	// packets emitted, block-pool hit rate) on the registry. The trace
	// bytes are unaffected: telemetry reads counters, never randomness.
	Telemetry *telemetry.Registry
}

// WeekStart returns the capture start of each vantage/week (Table 2 and
// §2.2's DITL days).
func WeekStart(v cloudmodel.Vantage, w cloudmodel.Week) time.Time {
	if v == cloudmodel.VantageBRoot {
		switch w {
		case cloudmodel.W2018:
			return time.Date(2018, 4, 10, 0, 0, 0, 0, time.UTC)
		case cloudmodel.W2019:
			return time.Date(2019, 4, 9, 0, 0, 0, 0, time.UTC)
		default:
			return time.Date(2020, 5, 6, 0, 0, 0, 0, time.UTC)
		}
	}
	switch w {
	case cloudmodel.W2018:
		return time.Date(2018, 11, 4, 0, 0, 0, 0, time.UTC)
	case cloudmodel.W2019:
		return time.Date(2019, 11, 3, 0, 0, 0, 0, time.UTC)
	default:
		return time.Date(2020, 4, 5, 0, 0, 0, 0, time.UTC)
	}
}

// Duration returns the capture length: a week for ccTLDs, one day for
// B-Root (DITL collections).
func Duration(v cloudmodel.Vantage) time.Duration {
	if v == cloudmodel.VantageBRoot {
		return 24 * time.Hour
	}
	return 7 * 24 * time.Hour
}

// ServerAddr returns the address of the i-th authoritative server of the
// vantage. The space (198.51.x / 2001:500:1b::x) is disjoint from resolver
// and glue allocations.
func ServerAddr(v cloudmodel.Vantage, i int, v6 bool) netip.Addr {
	base := map[cloudmodel.Vantage]byte{
		cloudmodel.VantageNL: 10, cloudmodel.VantageNZ: 20, cloudmodel.VantageBRoot: 30,
	}[v]
	if v6 {
		var b [16]byte
		copy(b[:6], []byte{0x20, 0x01, 0x05, 0x00, 0x00, 0x1b})
		b[14] = base
		b[15] = byte(i + 1)
		return netip.AddrFrom16(b)
	}
	return netip.AddrFrom4([4]byte{198, 51, base, byte(i + 1)})
}

// GroundTruth counts what the generator emitted, for validating the
// analysis pipeline against an oracle.
type GroundTruth struct {
	Queries      uint64
	ByProvider   map[astrie.Provider]uint64
	JunkQueries  map[astrie.Provider]uint64
	V6Queries    map[astrie.Provider]uint64
	TCPQueries   map[astrie.Provider]uint64
	Truncated    map[astrie.Provider]uint64
	ByType       map[dnswire.Type]uint64
	ResolverSet  map[netip.Addr]struct{}
	OtherQueries uint64
	OtherJunk    uint64
}

// Generator produces one trace. Its state after NewGenerator is read-only:
// every mutable piece of generation state (PRNG, engine, scratch buffers)
// lives in per-shard emitters, so one Generator can drive many shards.
type Generator struct {
	cfg   Config
	vw    *cloudmodel.VantageWeek
	reg   *astrie.Registry
	zone  *zonedb.Zone
	ptrDB *rdns.DB

	pools    map[astrie.Provider]*providerPool
	longTail *longTailPool
	pickProv *stats.WeightedChoice
	provIdx  []astrie.Provider // index space of pickProv: providers + Other last

	// Telemetry mirrors (nil ⇒ no-ops), fed once per generated block so
	// the per-event emit path stays zero-cost.
	tmEvents  *telemetry.Counter
	tmPackets *telemetry.Counter
}

// NewGenerator builds all state for one trace configuration.
func NewGenerator(cfg Config) (*Generator, error) {
	if cfg.TotalQueries <= 0 {
		return nil, fmt.Errorf("workload: TotalQueries must be positive")
	}
	if cfg.ResolverScale <= 0 {
		cfg.ResolverScale = 0.02
	}
	if cfg.NumServers <= 0 {
		cfg.NumServers = 1
		if cfg.Vantage == cloudmodel.VantageNL {
			cfg.NumServers = 2 // Table 2: two analyzed .nl servers
		}
	}
	vw, err := cloudmodel.Get(cfg.Vantage, cfg.Week)
	if err != nil {
		return nil, err
	}
	if cfg.LongTailASes <= 0 {
		cfg.LongTailASes = vw.ASes / 20
	}
	rng := rand.New(rand.NewSource(cfg.Seed))

	reg := astrie.NewRegistry(cfg.LongTailASes)
	zone, err := buildZone(cfg.Vantage)
	if err != nil {
		return nil, err
	}
	deployment := deploymentFor(cfg.Vantage, cfg.Week)
	g := &Generator{
		cfg:   cfg,
		vw:    vw,
		reg:   reg,
		zone:  zone,
		ptrDB: rdns.NewDB(),
		pools: make(map[astrie.Provider]*providerPool),
	}

	filter := cfg.ProviderFilter
	if len(filter) == 0 {
		filter = astrie.CloudProviders
	}
	var weights []float64
	cloudShare := 0.0
	for _, p := range filter {
		profile := vw.Providers[p]
		if cfg.QminOverride != nil {
			profile.QminShare = *cfg.QminOverride
		}
		pool, err := buildProviderPool(reg, p, profile, cfg.ResolverScale, rng, g.ptrDB, deployment)
		if err != nil {
			return nil, err
		}
		g.pools[p] = pool
		g.provIdx = append(g.provIdx, p)
		weights = append(weights, profile.Share)
		cloudShare += profile.Share
	}
	// The long tail only participates in unfiltered runs.
	if len(cfg.ProviderFilter) == 0 {
		cloudResolvers := 0
		for _, p := range astrie.CloudProviders {
			cloudResolvers += vw.Providers[p].Resolvers
		}
		nOther := scaledCount(vw.Resolvers-cloudResolvers, cfg.ResolverScale/4, cfg.LongTailASes)
		lt, err := buildLongTailPool(reg, nOther, cfg.LongTailASes, cfg.Week, rng, deployment)
		if err != nil {
			return nil, err
		}
		g.longTail = lt
		g.provIdx = append(g.provIdx, astrie.ProviderOther)
		weights = append(weights, 1-cloudShare)
	}
	g.pickProv, err = stats.NewWeightedChoice(weights)
	if err != nil {
		return nil, err
	}
	if reg := cfg.Telemetry; reg != nil {
		g.tmEvents = reg.Counter("workload_events_total")
		g.tmPackets = reg.Counter("workload_packets_total")
		// The block pool is package-wide; expose its cumulative gets and
		// misses so the arena-recycling hit rate (1 - misses/gets) is
		// readable live.
		reg.CounterFunc("workload_block_pool_gets_total", poolGets.Load)
		reg.CounterFunc("workload_block_pool_misses_total", poolMisses.Load)
	}
	return g, nil
}

// deploymentFor returns the vantage's anycast site set: B-Root's grows
// across the snapshots (§3's explanation for its resolver growth); the
// ccTLD authoritative services are anycast across roughly a dozen (.nl,
// §2.1.1) and several (.nz) global locations throughout.
func deploymentFor(v cloudmodel.Vantage, w cloudmodel.Week) *anycast.Deployment {
	if v == cloudmodel.VantageBRoot {
		return anycast.BRootDeployments[w.Year()]
	}
	if v == cloudmodel.VantageNL {
		return nlDeployment
	}
	return nzDeployment
}

var nlDeployment = mustDeployment([]anycast.Site{
	{Code: "ams", Lat: 52.31, Lon: 4.76},
	{Code: "lhr", Lat: 51.47, Lon: -0.45},
	{Code: "fra", Lat: 50.03, Lon: 8.56},
	{Code: "cdg", Lat: 49.01, Lon: 2.55},
	{Code: "iad", Lat: 38.94, Lon: -77.46},
	{Code: "ord", Lat: 41.97, Lon: -87.91},
	{Code: "sjc", Lat: 37.36, Lon: -121.93},
	{Code: "gru", Lat: -23.44, Lon: -46.47},
	{Code: "sin", Lat: 1.36, Lon: 103.99},
	{Code: "nrt", Lat: 35.76, Lon: 140.39},
	{Code: "syd", Lat: -33.95, Lon: 151.18},
	{Code: "jnb", Lat: -26.13, Lon: 28.23},
})

var nzDeployment = mustDeployment([]anycast.Site{
	{Code: "akl", Lat: -37.01, Lon: 174.79},
	{Code: "wlg", Lat: -41.33, Lon: 174.81},
	{Code: "syd", Lat: -33.95, Lon: 151.18},
	{Code: "lax", Lat: 33.94, Lon: -118.41},
	{Code: "lhr", Lat: 51.47, Lon: -0.45},
	{Code: "fra", Lat: 50.03, Lon: 8.56},
	{Code: "sin", Lat: 1.36, Lon: 103.99},
})

func mustDeployment(sites []anycast.Site) *anycast.Deployment {
	d, err := anycast.NewDeployment(sites)
	if err != nil {
		panic(err)
	}
	return d
}

// buildZone creates the vantage's zone at a scaled-down size that keeps
// the .nz second/third-level split (Table 2's zone sizes are virtual, so
// the full sizes would also work; scaled sizes keep Zipf sampling fast).
func buildZone(v cloudmodel.Vantage) (*zonedb.Zone, error) {
	switch v {
	case cloudmodel.VantageNL:
		return zonedb.NewCcTLD("nl", 590_000, 0, 0.55,
			[]string{"ns1.dns.nl", "ns3.dns.nl"})
	case cloudmodel.VantageNZ:
		// 140.5K second-level, 574.5K third-level scaled by 10.
		return zonedb.NewCcTLD("nz", 14_050, 57_450, 0.30,
			[]string{"ns1.dns.net.nz", "ns2.dns.net.nz"})
	case cloudmodel.VantageBRoot:
		return zonedb.NewRoot(zonedb.DefaultRootTLDs, []string{"b.root-servers.net"})
	}
	return nil, fmt.Errorf("workload: unknown vantage %q", v)
}

// Registry exposes the AS registry used (the analysis pipeline must use
// the same one).
func (g *Generator) Registry() *astrie.Registry { return g.reg }

// PTRDB exposes the PTR database for the Figure 5 reverse-DNS step.
func (g *Generator) PTRDB() *rdns.DB { return g.ptrDB }

// Zone exposes the zone served at the vantage.
func (g *Generator) Zone() *zonedb.Zone { return g.zone }

// newGroundTruth allocates the counters.
func newGroundTruth() *GroundTruth {
	return &GroundTruth{
		ByProvider:  make(map[astrie.Provider]uint64),
		JunkQueries: make(map[astrie.Provider]uint64),
		V6Queries:   make(map[astrie.Provider]uint64),
		TCPQueries:  make(map[astrie.Provider]uint64),
		Truncated:   make(map[astrie.Provider]uint64),
		ByType:      make(map[dnswire.Type]uint64),
		ResolverSet: make(map[netip.Addr]struct{}),
	}
}

// Merge folds the counts of another shard's ground truth into gt. All
// fields are order-insensitive sums or set unions, so merging per-shard
// truths yields the same totals regardless of sharding.
func (gt *GroundTruth) Merge(o *GroundTruth) {
	gt.Queries += o.Queries
	gt.OtherQueries += o.OtherQueries
	gt.OtherJunk += o.OtherJunk
	for k, v := range o.ByProvider {
		gt.ByProvider[k] += v
	}
	for k, v := range o.JunkQueries {
		gt.JunkQueries[k] += v
	}
	for k, v := range o.V6Queries {
		gt.V6Queries[k] += v
	}
	for k, v := range o.TCPQueries {
		gt.TCPQueries[k] += v
	}
	for k, v := range o.Truncated {
		gt.Truncated[k] += v
	}
	for k, v := range o.ByType {
		gt.ByType[k] += v
	}
	for k := range o.ResolverSet {
		gt.ResolverSet[k] = struct{}{}
	}
}
