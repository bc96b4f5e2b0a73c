package resolver

import (
	"context"
	"encoding/binary"
	"fmt"
	"net"
	"net/netip"
	"sync/atomic"
	"time"

	"dnscentral/internal/authserver"
	"dnscentral/internal/dnswire"
)

// ContextTransport is a Transport whose exchanges can be cancelled
// mid-flight. The recursor's hedged queries need this: when the first
// upstream answers, the racing exchange against the second is torn down
// immediately instead of running out its timeout. A timeout of 0 falls
// back to the transport's own default.
type ContextTransport interface {
	Transport
	ExchangeContext(ctx context.Context, q *dnswire.Message, tcp bool, timeout time.Duration) (*dnswire.Message, time.Duration, error)
}

// ExchangeContext performs one exchange honoring both the timeout and
// the context, using native cancellation when t implements
// ContextTransport. Other transports run the exchange in a goroutine
// and abandon its result on cancellation: the caller unblocks at once,
// while the orphaned attempt self-terminates at its own deadline.
func ExchangeContext(ctx context.Context, t Transport, q *dnswire.Message, tcp bool, timeout time.Duration) (*dnswire.Message, time.Duration, error) {
	if ct, ok := t.(ContextTransport); ok {
		return ct.ExchangeContext(ctx, q, tcp, timeout)
	}
	type outcome struct {
		resp *dnswire.Message
		rtt  time.Duration
		err  error
	}
	ch := make(chan outcome, 1)
	go func() {
		var o outcome
		if dt, ok := t.(DeadlineTransport); ok && timeout > 0 {
			o.resp, o.rtt, o.err = dt.ExchangeDeadline(q, tcp, timeout)
		} else {
			o.resp, o.rtt, o.err = t.Exchange(q, tcp)
		}
		ch <- o
	}()
	select {
	case o := <-ch:
		return o.resp, o.rtt, o.err
	case <-ctx.Done():
		return nil, 0, ctx.Err()
	}
}

// EngineTransport exchanges messages with an in-process authoritative
// Engine, faithfully passing through the wire format (pack, truncate,
// unpack) so EDNS-driven truncation behaves exactly as on a socket.
// SimulatedRTT is reported as the exchange duration (TCP exchanges report
// twice the value: handshake plus query round), giving deterministic
// latency signals for the family-preference policy without sleeping.
type EngineTransport struct {
	Engine       *authserver.Engine
	Client       netip.Addr
	SimulatedRTT time.Duration
}

// Exchange implements Transport.
func (t *EngineTransport) Exchange(q *dnswire.Message, tcp bool) (*dnswire.Message, time.Duration, error) {
	// Round-trip the query through the wire format too, so malformed
	// constructions are caught in tests.
	wire, err := q.Pack()
	if err != nil {
		return nil, 0, err
	}
	parsed, err := dnswire.Unpack(wire)
	if err != nil {
		return nil, 0, err
	}
	r := t.Engine.Handle(parsed, t.Client, tcp)
	if r == nil {
		return nil, 0, fmt.Errorf("engine transport: query dropped (RRL)")
	}
	out, err := authserver.PackResponse(r, parsed, tcp)
	if err != nil {
		return nil, 0, err
	}
	resp, err := dnswire.Unpack(out)
	if err != nil {
		return nil, 0, err
	}
	rtt := t.SimulatedRTT
	if rtt == 0 {
		rtt = time.Millisecond
	}
	if tcp {
		rtt *= 2
	}
	return resp, rtt, nil
}

// NetTransport exchanges messages with a real authoritative server over
// UDP and TCP sockets. The reported duration is the socket-level exchange
// time (for TCP: connect + query, matching how the paper estimates RTTs
// from TCP handshakes).
//
// The UDP receive path is hardened against imperfect networks: stray
// datagrams — wrong source address, mismatched message ID, short or
// unparseable payloads (late duplicates, reordered leftovers, spoofing
// attempts) — are discarded and the read continues until the deadline,
// instead of failing the whole exchange on the first oddity.
type NetTransport struct {
	// Server is the authoritative server address (UDP and TCP same port).
	Server netip.AddrPort
	// Timeout bounds each exchange (default 5s).
	Timeout time.Duration

	strays atomic.Uint64 // datagrams the read loop discarded
}

// Exchange implements Transport.
func (t *NetTransport) Exchange(q *dnswire.Message, tcp bool) (*dnswire.Message, time.Duration, error) {
	return t.ExchangeDeadline(q, tcp, 0)
}

// ExchangeDeadline implements DeadlineTransport; a timeout of 0 falls
// back to the transport-level Timeout (default 5s).
func (t *NetTransport) ExchangeDeadline(q *dnswire.Message, tcp bool, timeout time.Duration) (*dnswire.Message, time.Duration, error) {
	return t.ExchangeContext(context.Background(), q, tcp, timeout)
}

// ExchangeContext implements ContextTransport with real socket-level
// cancellation: when ctx is cancelled mid-exchange the in-flight socket
// deadline is yanked to the past, so blocked reads and dials return
// immediately and the context error is surfaced.
func (t *NetTransport) ExchangeContext(ctx context.Context, q *dnswire.Message, tcp bool, timeout time.Duration) (*dnswire.Message, time.Duration, error) {
	if timeout <= 0 {
		timeout = t.Timeout
	}
	if timeout <= 0 {
		timeout = 5 * time.Second
	}
	wire, err := q.Pack()
	if err != nil {
		return nil, 0, err
	}
	start := time.Now()
	if !tcp {
		resp, err := t.exchangeUDP(ctx, wire, q.Header.ID, timeout)
		return resp, time.Since(start), ctxErr(ctx, err)
	}
	raw, err := t.exchangeTCP(ctx, wire, timeout)
	elapsed := time.Since(start)
	if err != nil {
		return nil, elapsed, ctxErr(ctx, err)
	}
	resp, err := dnswire.Unpack(raw)
	if err != nil {
		return nil, elapsed, err
	}
	if resp.Header.ID != q.Header.ID {
		return nil, elapsed, fmt.Errorf("net transport: response ID %d != query ID %d", resp.Header.ID, q.Header.ID)
	}
	return resp, elapsed, nil
}

// ctxErr prefers the context's cancellation cause over the I/O error it
// provoked (a poked deadline surfaces as a timeout otherwise).
func ctxErr(ctx context.Context, err error) error {
	if err != nil && ctx.Err() != nil {
		return ctx.Err()
	}
	return err
}

// exchangeUDP sends the query from an unconnected socket and reads
// until a datagram from the server with the matching ID parses cleanly,
// or the deadline passes. The unconnected socket is what makes source
// verification real (a connected socket would have the kernel filter
// silently, and could never observe — or count — spoofed traffic).
func (t *NetTransport) exchangeUDP(ctx context.Context, wire []byte, id uint16, timeout time.Duration) (*dnswire.Message, error) {
	conn, err := net.ListenUDP("udp", nil)
	if err != nil {
		return nil, err
	}
	defer conn.Close()
	_ = conn.SetDeadline(time.Now().Add(timeout))
	stop := context.AfterFunc(ctx, func() { _ = conn.SetDeadline(time.Unix(1, 0)) })
	defer stop()
	if _, err := conn.WriteToUDPAddrPort(wire, t.Server); err != nil {
		return nil, err
	}
	buf := make([]byte, 65535)
	var discarded int
	for {
		n, src, err := conn.ReadFromUDPAddrPort(buf)
		if err != nil {
			return nil, fmt.Errorf("net transport: udp read (after discarding %d stray datagrams): %w", discarded, err)
		}
		if src.Addr().Unmap() != t.Server.Addr().Unmap() || src.Port() != t.Server.Port() {
			discarded++
			t.strays.Add(1)
			continue // response must come from the queried server
		}
		if n < 12 || binary.BigEndian.Uint16(buf[:2]) != id {
			discarded++
			t.strays.Add(1)
			continue // short datagram or mismatched transaction ID
		}
		resp, err := dnswire.Unpack(buf[:n])
		if err != nil {
			// Corrupted in flight; a duplicate may still arrive intact.
			discarded++
			t.strays.Add(1)
			continue
		}
		if !resp.Header.Response {
			discarded++
			t.strays.Add(1)
			continue
		}
		return resp, nil
	}
}

func (t *NetTransport) exchangeTCP(ctx context.Context, wire []byte, timeout time.Duration) ([]byte, error) {
	d := net.Dialer{Timeout: timeout}
	conn, err := d.DialContext(ctx, "tcp", t.Server.String())
	if err != nil {
		return nil, err
	}
	defer conn.Close()
	_ = conn.SetDeadline(time.Now().Add(timeout))
	stop := context.AfterFunc(ctx, func() { _ = conn.SetDeadline(time.Unix(1, 0)) })
	defer stop()
	if err := authserver.WriteTCPMessage(conn, wire); err != nil {
		return nil, err
	}
	return authserver.ReadTCPMessage(conn)
}
