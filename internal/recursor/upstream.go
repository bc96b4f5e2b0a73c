package recursor

import (
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"dnscentral/internal/resolver"
)

// ewmaDecay is the smoothing horizon of the per-upstream RTT estimate:
// each observation moves the average 1/10th of the way to the sample,
// the same decay dnscrypt-proxy uses for its load-balancing EWMA.
const ewmaDecay = 10.0

// failPenalty is the RTT charged for a failed exchange, pushing a dead
// or browned-out upstream to the back of every power-of-two choice
// until fresh successes pull its estimate down again.
const failPenalty = 2 * time.Second

// Upstream is one authoritative server the recursor can forward to,
// tagged with the provider name the centralization report groups by.
type Upstream struct {
	// Name labels the upstream in reports and metrics ("cloudA",
	// "ns1.nl"). Several upstreams may share a provider name; the
	// report aggregates them.
	Name string
	// Transport performs the exchanges (any resolver.Transport; the
	// hardened NetTransport brings RTO, TC→TCP and fault-injection
	// composition for free).
	Transport resolver.Transport

	// ewmaNS is the smoothed RTT in nanoseconds (atomic float bits via
	// int64; 0 = unmeasured).
	ewmaNS atomic.Int64

	// br is the circuit breaker (nil when disabled); jar round-trips
	// RFC 7873 DNS cookies with this server (nil when disabled). Both
	// are armed by Recursor.New from its Config.
	br  *breaker
	jar *resolver.CookieJar

	queries  atomic.Uint64 // wire exchanges sent to this upstream
	failures atomic.Uint64 // exchanges that errored
	answers  atomic.Uint64 // stub queries answered from this upstream's fills (hits included)
}

// admit consults the breaker (always true when disarmed), consuming the
// half-open probe slot when it grants one.
func (u *Upstream) admit(now time.Time) bool {
	return u.br == nil || u.br.admit(now)
}

// admissible is the non-consuming admission preview.
func (u *Upstream) admissible(now time.Time) bool {
	return u.br == nil || u.br.admissible(now)
}

// BreakerState returns the breaker state constant (BreakerClosed when
// breakers are disarmed).
func (u *Upstream) BreakerState() int32 {
	if u.br == nil {
		return BreakerClosed
	}
	return u.br.State()
}

// BreakerOpens returns how often this upstream's breaker tripped open.
func (u *Upstream) BreakerOpens() uint64 {
	if u.br == nil {
		return 0
	}
	return u.br.opens.Load()
}

// EWMA returns the smoothed RTT estimate (0 until first measurement).
func (u *Upstream) EWMA() time.Duration { return time.Duration(u.ewmaNS.Load()) }

// observe folds one measured RTT into the estimate.
func (u *Upstream) observe(rtt time.Duration) {
	for {
		old := u.ewmaNS.Load()
		var next int64
		if old == 0 {
			next = int64(rtt)
		} else {
			next = old + (int64(rtt)-old)/int64(ewmaDecay)
		}
		if next <= 0 {
			next = 1
		}
		if u.ewmaNS.CompareAndSwap(old, next) {
			return
		}
	}
}

// penalize charges a failure as a slow observation.
func (u *Upstream) penalize() { u.observe(failPenalty) }

// Pool selects upstreams by EWMA-RTT power-of-two-choices: draw two
// distinct candidates uniformly, send to the one with the lower
// smoothed RTT. P2C gives most traffic to fast upstreams while still
// sampling slow ones enough to notice recovery — the balance plain
// best-of-N converges away from.
type Pool struct {
	ups []*Upstream

	mu  sync.Mutex
	rng *rand.Rand
}

// NewPool builds a pool over the given upstreams (at least one).
func NewPool(seed int64, ups ...*Upstream) *Pool {
	return &Pool{ups: ups, rng: rand.New(rand.NewSource(seed))}
}

// Len returns the number of upstreams.
func (p *Pool) Len() int { return len(p.ups) }

// Upstream returns the upstream at pool index i.
func (p *Pool) Upstream(i int) *Upstream { return p.ups[i] }

// armBreakers attaches a circuit breaker to every upstream. No-op when
// cfg.Failures is 0 (disabled).
func (p *Pool) armBreakers(cfg BreakerConfig) {
	if cfg.Failures <= 0 {
		return
	}
	for _, u := range p.ups {
		u.br = newBreaker(cfg)
	}
}

// Pick chooses the next upstream by power-of-two-choices. Unmeasured
// upstreams (EWMA 0) win every comparison so each gets probed early.
// Breaker-rejected candidates are skipped; when every upstream's
// breaker refuses, Pick returns (nil, -1) and the exchange fast-fails
// without wire traffic. A granted pick consumes the breaker admission
// (including the single half-open probe slot), so the caller must
// actually send.
func (p *Pool) Pick(now time.Time) (*Upstream, int) {
	n := len(p.ups)
	if n == 1 {
		if p.ups[0].admit(now) {
			return p.ups[0], 0
		}
		return nil, -1
	}
	p.mu.Lock()
	i := p.rng.Intn(n)
	j := p.rng.Intn(n - 1)
	p.mu.Unlock()
	if j >= i {
		j++
	}
	if better(p.ups[j], p.ups[i]) {
		i, j = j, i
	}
	if p.ups[i].admit(now) {
		return p.ups[i], i
	}
	if p.ups[j].admit(now) {
		return p.ups[j], j
	}
	for k, u := range p.ups {
		if k != i && k != j && u.admit(now) {
			return u, k
		}
	}
	return nil, -1
}

// PickOther chooses the hedge target: the lowest-EWMA admissible
// upstream other than the primary (nil when the pool has no admissible
// alternative). Hedging to the best-known alternative, not a random
// one, is what makes the second query likely to actually beat a
// straggling primary. Like Pick, a non-nil return consumes the
// breaker admission.
func (p *Pool) PickOther(primary int, now time.Time) (*Upstream, int) {
	best, bi := (*Upstream)(nil), -1
	for i, u := range p.ups {
		if i == primary || !u.admissible(now) {
			continue
		}
		if best == nil || better(u, best) {
			best, bi = u, i
		}
	}
	if best == nil || !best.admit(now) {
		return nil, -1
	}
	return best, bi
}

// better reports whether a should be preferred over b: unmeasured
// upstreams first (they need probing), then lower smoothed RTT.
func better(a, b *Upstream) bool {
	ea, eb := a.ewmaNS.Load(), b.ewmaNS.Load()
	if ea == 0 {
		return true
	}
	if eb == 0 {
		return false
	}
	return ea < eb
}
