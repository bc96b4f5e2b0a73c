package stats

import (
	"fmt"
	"strings"
)

// Robustness aggregates the retry-amplification accounting of a run
// under network impairment. The paper's §5 observes that a slice of
// the traffic reaching authoritative servers is junk — retransmissions
// and broken-resolver retries — so the load the server measures grows
// as paths degrade even when the logical workload is constant. This
// report quantifies exactly that: wire queries per logical exchange
// (amplification), failure rate, and TCP-fallback rate.
//
// The struct is filled by the caller from resolver counters plus its
// own lookup bookkeeping; it deliberately contains only counts (no
// timings), so two runs with the same fault seed format to identical
// bytes.
type Robustness struct {
	// Lookups is the number of logical resolutions attempted; Failures
	// is how many returned an error after all retries.
	Lookups  uint64
	Failures uint64
	// LogicalExchanges is the number of name/type exchanges the
	// resolver needed; WireQueries is what actually crossed the wire
	// for them (retries and TCP fallbacks included).
	LogicalExchanges uint64
	WireQueries      uint64
	// Retries counts wire attempts beyond each exchange's first;
	// AttemptErrors counts attempts lost to timeout/corruption/refusal;
	// ServfailRetries counts attempts retried on a SERVFAIL answer;
	// FailedExchanges counts exchanges that exhausted their budget.
	Retries         uint64
	AttemptErrors   uint64
	ServfailRetries uint64
	FailedExchanges uint64
	// TCPQueries counts wire queries sent over TCP; TCPFallbacks counts
	// truncation-driven UDP→TCP switches.
	TCPQueries   uint64
	TCPFallbacks uint64
	// CacheHits counts lookups served without touching the wire.
	CacheHits uint64
	// FaultsInjected totals the impairment events the fault layer
	// actually fired (0 on a clean network).
	FaultsInjected uint64
}

// Amplification is the retry-amplification factor: wire queries per
// logical exchange. A perfect network holds it at exactly 1.0 (TCP
// fallback aside); loss pushes it toward 1 + retry budget.
func (r Robustness) Amplification() float64 {
	return Ratio(r.WireQueries, r.LogicalExchanges)
}

// FailureRate is the fraction of lookups that failed outright.
func (r Robustness) FailureRate() float64 {
	return Ratio(r.Failures, r.Lookups)
}

// TCPFallbackRate is the fraction of wire queries carried over TCP.
func (r Robustness) TCPFallbackRate() float64 {
	return Ratio(r.TCPQueries, r.WireQueries)
}

// QueriesPerLookup is the authoritative-side load per logical lookup —
// the quantity the paper's per-provider counts measure.
func (r Robustness) QueriesPerLookup() float64 {
	return Ratio(r.WireQueries, r.Lookups)
}

// Format renders the report as a fixed-layout text block. Only counters
// and ratios derived from them appear, so the output is byte-identical
// across runs with the same fault seed.
func (r Robustness) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "robustness report:\n")
	fmt.Fprintf(&b, "  lookups            %8d (%d failed, %d cache hits)\n", r.Lookups, r.Failures, r.CacheHits)
	fmt.Fprintf(&b, "  logical exchanges  %8d\n", r.LogicalExchanges)
	fmt.Fprintf(&b, "  wire queries       %8d (%d retries, %d attempt errors, %d servfail retries)\n",
		r.WireQueries, r.Retries, r.AttemptErrors, r.ServfailRetries)
	fmt.Fprintf(&b, "  failed exchanges   %8d\n", r.FailedExchanges)
	fmt.Fprintf(&b, "  faults injected    %8d\n", r.FaultsInjected)
	fmt.Fprintf(&b, "  amplification      %10.4f wire queries per logical exchange\n", r.Amplification())
	fmt.Fprintf(&b, "  queries/lookup     %10.4f\n", r.QueriesPerLookup())
	fmt.Fprintf(&b, "  failure rate       %10.4f\n", r.FailureRate())
	fmt.Fprintf(&b, "  tcp fallback rate  %10.4f (%d TCP queries, %d TC fallbacks)\n",
		r.TCPFallbackRate(), r.TCPQueries, r.TCPFallbacks)
	return b.String()
}
