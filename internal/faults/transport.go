package faults

import (
	"errors"
	"fmt"
	"time"

	"dnscentral/internal/dnswire"
	"dnscentral/internal/resolver"
)

// Errors surfaced by impaired exchanges. They unwrap to
// ErrInjected so consumers can distinguish injected faults from real
// transport failures.
var (
	ErrInjected = errors.New("faults: injected")
	// ErrTimeout is an exchange lost to packet drop or a silent brownout.
	ErrTimeout = fmt.Errorf("%w timeout", ErrInjected)
	// ErrCorrupt is a response damaged beyond parsing.
	ErrCorrupt = fmt.Errorf("%w corruption, response discarded", ErrInjected)
	// ErrConnRefused is an injected TCP connection failure.
	ErrConnRefused = fmt.Errorf("%w TCP connection failure", ErrInjected)
)

// Transport wraps an inner resolver.Transport with the impairment
// layer. Timing side effects (added latency, the timeout charged to a
// lost exchange, reorder delay) are reported through the Advance hook,
// which a simulation points at its virtual clock; a nil hook skips the
// waits, which keeps real-socket CLI runs fast while the decision
// stream — and therefore every counter — stays seed-deterministic.
type Transport struct {
	inner   resolver.Transport
	inj     *Injector
	advance func(time.Duration)
}

// WrapTransport builds the impaired transport. advance may be nil.
func WrapTransport(inner resolver.Transport, inj *Injector, advance func(time.Duration)) *Transport {
	return &Transport{inner: inner, inj: inj, advance: advance}
}

func (t *Transport) wait(d time.Duration) {
	if t.advance != nil && d > 0 {
		t.advance(d)
	}
}

// Exchange implements resolver.Transport.
func (t *Transport) Exchange(q *dnswire.Message, tcp bool) (*dnswire.Message, time.Duration, error) {
	return t.exchange(q, tcp, func() (*dnswire.Message, time.Duration, error) {
		return t.inner.Exchange(q, tcp)
	})
}

// ExchangeDeadline implements resolver.DeadlineTransport when the inner
// transport does; otherwise the deadline is ignored and the plain
// Exchange path is used.
func (t *Transport) ExchangeDeadline(q *dnswire.Message, tcp bool, timeout time.Duration) (*dnswire.Message, time.Duration, error) {
	if dt, ok := t.inner.(resolver.DeadlineTransport); ok {
		return t.exchange(q, tcp, func() (*dnswire.Message, time.Duration, error) {
			return dt.ExchangeDeadline(q, tcp, timeout)
		})
	}
	return t.Exchange(q, tcp)
}

func (t *Transport) exchange(q *dnswire.Message, tcp bool, inner func() (*dnswire.Message, time.Duration, error)) (*dnswire.Message, time.Duration, error) {
	v := t.inj.plan(tcp)
	t.wait(v.delay)
	switch v.outcome {
	case outcomeBrownoutServfail:
		// The server is up but overloaded: it answers instantly with
		// SERVFAIL and the query never hits the normal answer path.
		return servfail(q), v.delay, nil
	case outcomeBrownoutDrop:
		if !tcp {
			// The query reaches the degraded server (so a server-side
			// capture would show it) but no response comes back.
			_, _, _ = inner()
		}
		t.wait(v.timeout)
		return nil, v.timeout, ErrTimeout
	case outcomeTCPFail:
		t.wait(v.timeout)
		return nil, v.timeout, ErrConnRefused
	case outcomeDropQuery:
		// Lost before the server: nothing observable at the vantage.
		t.wait(v.timeout)
		return nil, v.timeout, ErrTimeout
	case outcomeDropResponse:
		_, _, _ = inner()
		t.wait(v.timeout)
		return nil, v.timeout, ErrTimeout
	case outcomeCorrupt:
		_, _, _ = inner()
		return nil, 0, ErrCorrupt
	}
	resp, rtt, err := inner()
	if err != nil {
		return nil, rtt, err
	}
	if v.reorder {
		// Delivered late, behind unrelated traffic.
		t.wait(v.timeout / 2)
		rtt += v.timeout / 2
	}
	if !tcp && v.truncate && !resp.Header.Truncated {
		resp.Header.Truncated = true
		// A truncated datagram carries no usable sections.
		resp.Answers, resp.Authority, resp.Additional = nil, nil, nil
	}
	// Duplication delivers a second copy the hardened client discards;
	// only the counter observes it on the in-process path (the socket
	// proxy really sends two datagrams).
	return resp, rtt + v.delay, nil
}

// servfail builds the degraded server's immediate SERVFAIL answer.
func servfail(q *dnswire.Message) *dnswire.Message {
	r := &dnswire.Message{
		Header: dnswire.Header{
			ID:               q.Header.ID,
			Response:         true,
			Opcode:           q.Header.Opcode,
			RecursionDesired: q.Header.RecursionDesired,
			RCode:            dnswire.RCodeServFail,
		},
		Questions: append([]dnswire.Question(nil), q.Questions...),
	}
	return r
}
