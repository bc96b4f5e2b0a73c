// Package faults is a deterministic, seed-driven network impairment
// layer for the simulated DNS path. The paper's headline numbers are
// query *counts* at authoritative servers, and §5 attributes a
// substantial slice of that traffic to retransmissions and broken
// resolvers on imperfect paths — traffic a lossless simulation never
// produces. This package makes those imperfections explicit and
// injectable: packet loss, duplication, reordering, latency/jitter,
// response corruption, forced truncation, and server brownouts, all
// driven by one seeded RNG so the same seed yields a byte-identical
// run.
//
// Two integration points share the same Injector decision core:
//
//   - Transport (transport.go) wraps any resolver.Transport for
//     in-process simulation with a virtual clock;
//   - Proxy (proxy.go) is a real UDP/TCP socket shim placed in front of
//     an authserver, impairing actual datagrams and byte streams.
package faults

import (
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"time"

	"dnscentral/internal/telemetry"
)

// BrownoutMode selects how a browned-out server misbehaves.
type BrownoutMode int

// Brownout modes.
const (
	// BrownoutDrop makes the server silently eat queries (timeout).
	BrownoutDrop BrownoutMode = iota
	// BrownoutServfail makes the server answer SERVFAIL immediately.
	BrownoutServfail
)

// String names the mode.
func (m BrownoutMode) String() string {
	if m == BrownoutServfail {
		return "servfail"
	}
	return "drop"
}

// ParseBrownoutMode parses "drop" or "servfail".
func ParseBrownoutMode(s string) (BrownoutMode, error) {
	switch strings.ToLower(s) {
	case "", "drop":
		return BrownoutDrop, nil
	case "servfail":
		return BrownoutServfail, nil
	}
	return 0, fmt.Errorf("faults: unknown brownout mode %q (want drop|servfail)", s)
}

// Brownout describes recurring server degradation windows, counted in
// exchanges so the schedule is deterministic regardless of pacing:
// exchanges [k*Every, k*Every+Len) are browned out for every k ≥ 1.
type Brownout struct {
	Every int          // window period in exchanges (0 disables)
	Len   int          // window length in exchanges
	Mode  BrownoutMode // what the degraded server does
}

// Config sets the impairment probabilities and shapes. All
// probabilities are per-decision in [0, 1]; zero values mean a perfect
// network.
type Config struct {
	// Loss is the independent drop probability applied to each UDP
	// direction (query toward the server, response back).
	Loss float64
	// Duplicate is the probability a UDP response is delivered twice.
	Duplicate float64
	// Reorder is the probability a UDP response is delivered late,
	// behind unrelated traffic (the client sees extra delay and may see
	// stale datagrams from earlier exchanges first).
	Reorder float64
	// Corrupt is the probability a UDP response payload is damaged in
	// flight (a hardened client discards it and retries).
	Corrupt float64
	// Truncate is the probability a UDP response is force-flagged TC=1,
	// pushing the client to TCP.
	Truncate float64
	// TCPFail is the probability a TCP connection attempt fails.
	TCPFail float64
	// Latency is extra one-way delay added to every delivery; Jitter
	// adds a uniform random component in [0, Jitter).
	Latency time.Duration
	Jitter  time.Duration
	// Brownout schedules recurring server degradation windows.
	Brownout Brownout
	// Timeout is the client wait charged to a lost exchange before it
	// gives up (default 400ms of virtual or real time).
	Timeout time.Duration
	// Seed drives every random decision; same seed ⇒ same run.
	Seed int64
	// Telemetry, when set, publishes the proxy's socket-plane counters
	// (faults_proxy_udp_write_errors_total) on the registry. Proxy-only;
	// it never counts toward Enabled().
	Telemetry *telemetry.Registry
}

// Enabled reports whether any impairment is configured.
func (c Config) Enabled() bool {
	return c.Loss > 0 || c.Duplicate > 0 || c.Reorder > 0 || c.Corrupt > 0 ||
		c.Truncate > 0 || c.TCPFail > 0 || c.Latency > 0 || c.Jitter > 0 ||
		(c.Brownout.Every > 0 && c.Brownout.Len > 0)
}

// DefaultTimeout is the lost-exchange wait used when Config.Timeout is 0.
const DefaultTimeout = 400 * time.Millisecond

func (c Config) timeout() time.Duration {
	if c.Timeout > 0 {
		return c.Timeout
	}
	return DefaultTimeout
}

// Stats counts the faults actually injected. All counters are
// cumulative; read a snapshot via Injector.Stats.
type Stats struct {
	Exchanges         uint64 // impairment decisions taken
	DroppedQueries    uint64 // query lost before reaching the server
	DroppedResponses  uint64 // response lost on the way back
	Duplicated        uint64 // responses delivered twice
	Reordered         uint64 // responses delivered late / out of order
	Corrupted         uint64 // responses damaged in flight
	Truncated         uint64 // responses force-flagged TC=1
	TCPFailures       uint64 // TCP connection attempts refused
	BrownoutDrops     uint64 // queries eaten by a browned-out server
	BrownoutServfails uint64 // SERVFAILs served by a browned-out server
}

// Total returns the number of injected fault events.
func (s Stats) Total() uint64 {
	return s.DroppedQueries + s.DroppedResponses + s.Duplicated + s.Reordered +
		s.Corrupted + s.Truncated + s.TCPFailures + s.BrownoutDrops + s.BrownoutServfails
}

// outcome is the terminal fate of one exchange.
type outcome int

const (
	outcomeDeliver outcome = iota
	outcomeDropQuery
	outcomeDropResponse
	outcomeCorrupt
	outcomeTCPFail
	outcomeBrownoutDrop
	outcomeBrownoutServfail
)

// verdict is one exchange's full impairment plan, drawn under a single
// lock so concurrent callers still consume the RNG a whole plan at a
// time.
type verdict struct {
	outcome   outcome
	truncate  bool          // force TC=1 on the delivered response
	duplicate bool          // deliver the response twice
	reorder   bool          // deliver the response late
	delay     time.Duration // extra one-way delay (latency + jitter)
	timeout   time.Duration // wait charged when the exchange is lost
}

// Injector is the shared seeded decision core. It is safe for
// concurrent use; determinism is guaranteed when exchanges are planned
// sequentially (the in-process simulation path).
type Injector struct {
	mu  sync.Mutex
	cfg Config
	rng *rand.Rand
	n   int // exchange counter for the brownout schedule
	st  Stats
}

// NewInjector builds an injector from cfg.
func NewInjector(cfg Config) *Injector {
	return &Injector{cfg: cfg, rng: rand.New(rand.NewSource(cfg.Seed))}
}

// Stats returns a snapshot of the injected-fault counters.
func (in *Injector) Stats() Stats {
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.st
}

// brownedOut reports whether exchange n falls in a degradation window.
func (in *Injector) brownedOut(n int) bool {
	b := in.cfg.Brownout
	if b.Every <= 0 || b.Len <= 0 || n < b.Every {
		return false
	}
	return n%b.Every < b.Len
}

// plan draws the impairment verdict for the next exchange.
func (in *Injector) plan(tcp bool) verdict {
	in.mu.Lock()
	defer in.mu.Unlock()
	in.st.Exchanges++
	v := verdict{outcome: outcomeDeliver, timeout: in.cfg.timeout()}
	v.delay = in.cfg.Latency
	if in.cfg.Jitter > 0 {
		v.delay += time.Duration(in.rng.Int63n(int64(in.cfg.Jitter)))
	}
	n := in.n
	in.n++
	if in.brownedOut(n) {
		if in.cfg.Brownout.Mode == BrownoutServfail {
			in.st.BrownoutServfails++
			v.outcome = outcomeBrownoutServfail
		} else {
			in.st.BrownoutDrops++
			v.outcome = outcomeBrownoutDrop
		}
		return v
	}
	if tcp {
		if in.roll(in.cfg.TCPFail) {
			in.st.TCPFailures++
			v.outcome = outcomeTCPFail
		}
		return v
	}
	// UDP path: the query and the response are lost independently. Both
	// probabilities are always consumed from the RNG so the decision
	// stream stays aligned across runs regardless of branch taken.
	lostQ := in.roll(in.cfg.Loss)
	lostR := in.roll(in.cfg.Loss)
	corrupt := in.roll(in.cfg.Corrupt)
	v.truncate = in.roll(in.cfg.Truncate)
	v.duplicate = in.roll(in.cfg.Duplicate)
	v.reorder = in.roll(in.cfg.Reorder)
	switch {
	case lostQ:
		in.st.DroppedQueries++
		v.outcome = outcomeDropQuery
	case lostR:
		in.st.DroppedResponses++
		v.outcome = outcomeDropResponse
	case corrupt:
		in.st.Corrupted++
		v.outcome = outcomeCorrupt
	default:
		if v.truncate {
			in.st.Truncated++
		}
		if v.duplicate {
			in.st.Duplicated++
		}
		if v.reorder {
			in.st.Reordered++
		}
	}
	return v
}

// roll consumes one RNG draw and compares it to p. p <= 0 still
// consumes a draw, keeping the decision stream seed-stable as
// individual impairments are toggled on and off — only when the whole
// probability is structurally absent (handled by callers) is a draw
// skipped.
func (in *Injector) roll(p float64) bool {
	return in.rng.Float64() < p
}
