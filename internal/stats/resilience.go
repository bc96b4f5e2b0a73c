package stats

import (
	"fmt"
	"strings"
)

// Resilience aggregates the outage-survival accounting of a recursor
// run: how much of the stub workload still got an answer while the
// upstream path was browned out or a flood hammered the front door.
// The paper's centralization concern has a flip side this quantifies —
// when few providers carry most zones, one provider outage is a mass
// outage, and the cache tier's serve-stale window is what stands
// between users and the dark. Like Robustness, the struct holds only
// counts, so two runs with the same seeds format to identical bytes.
type Resilience struct {
	// StubQueries is the stub workload presented to the recursor;
	// Servfails is how many of them surfaced a failure; FloodRefused is
	// how many the water-torture guard turned away with REFUSED.
	StubQueries  uint64
	Servfails    uint64
	FloodRefused uint64
	// FreshHits counts answers served from live cache entries;
	// StaleServed counts RFC 8767 answers served past expiry with
	// clamped TTLs; StaleRefreshes counts the background fills the
	// stale path launched.
	FreshHits      uint64
	StaleServed    uint64
	StaleRefreshes uint64
	// FailCacheHits counts misses absorbed by the negative failure
	// cache without an upstream attempt; BreakerFastFails counts fills
	// rejected because every upstream breaker was open; BreakerOpens
	// totals breaker trips across the pool.
	FailCacheHits    uint64
	BreakerFastFails uint64
	BreakerOpens     uint64
	// RRLDrops/RRLSlips count datagrams the per-client rate limiter
	// silently dropped or answered with a minimal TC=1 slip.
	RRLDrops uint64
	RRLSlips uint64
	// UpstreamQueries is what actually crossed the wire upstream;
	// UpstreamFailures is how many of those exchanges errored.
	UpstreamQueries  uint64
	UpstreamFailures uint64
}

// Answered is how many stub queries got a usable answer: everything
// that neither surfaced SERVFAIL nor was refused by the flood guard
// (RRL drops never reached the recursor and are not part of
// StubQueries).
func (r Resilience) Answered() uint64 {
	return r.StubQueries - r.Servfails - r.FloodRefused
}

// Availability is the fraction of stub queries answered — the
// during-brownout availability the serve-stale window buys.
func (r Resilience) Availability() float64 {
	return Ratio(r.Answered(), r.StubQueries)
}

// StaleShare is the fraction of answered queries served stale.
func (r Resilience) StaleShare() float64 {
	return Ratio(r.StaleServed, r.Answered())
}

// Amplification is upstream wire queries per stub query — the load a
// flood or outage actually translated into at the authoritative side.
// Breakers and the failure cache exist to hold this down.
func (r Resilience) Amplification() float64 {
	return Ratio(r.UpstreamQueries, r.StubQueries)
}

// Format renders the report as a fixed-layout text block, byte-stable
// across runs with the same seeds.
func (r Resilience) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "resilience report:\n")
	fmt.Fprintf(&b, "  stub queries       %8d (%d answered, %d servfail, %d flood-refused)\n",
		r.StubQueries, r.Answered(), r.Servfails, r.FloodRefused)
	fmt.Fprintf(&b, "  fresh hits         %8d\n", r.FreshHits)
	fmt.Fprintf(&b, "  stale served       %8d (%d background refreshes)\n", r.StaleServed, r.StaleRefreshes)
	fmt.Fprintf(&b, "  fail-cache hits    %8d\n", r.FailCacheHits)
	fmt.Fprintf(&b, "  breaker            %8d opens, %d fast-fails\n", r.BreakerOpens, r.BreakerFastFails)
	fmt.Fprintf(&b, "  rrl                %8d drops, %d slips\n", r.RRLDrops, r.RRLSlips)
	fmt.Fprintf(&b, "  upstream queries   %8d (%d failed)\n", r.UpstreamQueries, r.UpstreamFailures)
	fmt.Fprintf(&b, "  availability       %10.4f\n", r.Availability())
	fmt.Fprintf(&b, "  stale share        %10.4f of answered\n", r.StaleShare())
	fmt.Fprintf(&b, "  amplification      %10.4f upstream queries per stub query\n", r.Amplification())
	return b.String()
}
