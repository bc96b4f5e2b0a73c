package faults

import (
	"fmt"
	"io"
	"net"
	"net/netip"
	"sync"
	"sync/atomic"
	"time"
)

// Proxy is a real-socket impairment shim: it listens on UDP+TCP (same
// port, mirroring authserver.Listen) and forwards to an upstream DNS
// server, applying the impairment plan to actual datagrams and byte
// streams. Unlike the in-process Transport, concurrent clients race for
// RNG draws, so cross-run determinism holds only for sequential
// clients; per-packet decisions are still fully seed-driven.
type Proxy struct {
	inj      *Injector
	upstream netip.AddrPort

	udp *net.UDPConn
	tcp *net.TCPListener

	mu        sync.Mutex
	conns     map[net.Conn]struct{}
	closed    chan struct{}
	closeOnce sync.Once
	wg        sync.WaitGroup

	// udpWriteErrs counts datagrams the proxy meant to deliver to a
	// client but could not write — errors that were previously logged
	// (at best) and otherwise invisible in the fault accounting.
	udpWriteErrs atomic.Uint64

	// Logf, when non-nil, receives per-error diagnostics.
	Logf func(format string, args ...any)
}

// NewProxy starts an impairment proxy on addr (e.g. "127.0.0.1:0")
// forwarding to upstream.
func NewProxy(addr string, upstream netip.AddrPort, cfg Config) (*Proxy, error) {
	tcpLn, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("faults: proxy tcp listen: %w", err)
	}
	udpConn, err := net.ListenUDP("udp", &net.UDPAddr{
		IP:   tcpLn.Addr().(*net.TCPAddr).IP,
		Port: tcpLn.Addr().(*net.TCPAddr).Port,
	})
	if err != nil {
		tcpLn.Close()
		return nil, fmt.Errorf("faults: proxy udp listen: %w", err)
	}
	p := &Proxy{
		inj:      NewInjector(cfg),
		upstream: upstream,
		udp:      udpConn,
		tcp:      tcpLn.(*net.TCPListener),
		conns:    make(map[net.Conn]struct{}),
		closed:   make(chan struct{}),
	}
	if reg := cfg.Telemetry; reg != nil {
		reg.CounterFunc("faults_proxy_udp_write_errors_total", p.udpWriteErrs.Load)
	}
	p.wg.Add(2)
	go p.serveUDP()
	go p.serveTCP()
	return p, nil
}

// Addr returns the impaired address clients should use.
func (p *Proxy) Addr() netip.AddrPort {
	return p.udp.LocalAddr().(*net.UDPAddr).AddrPort()
}

// Stats returns the injected-fault counters.
func (p *Proxy) Stats() Stats { return p.inj.Stats() }

// Close stops the proxy, severing in-flight TCP relays. Safe to call
// more than once.
func (p *Proxy) Close() error {
	p.closeOnce.Do(func() {
		close(p.closed)
		p.udp.Close()
		p.tcp.Close()
		p.mu.Lock()
		for c := range p.conns {
			c.Close()
		}
		p.mu.Unlock()
		p.wg.Wait()
	})
	return nil
}

func (p *Proxy) logf(format string, args ...any) {
	if p.Logf != nil {
		p.Logf(format, args...)
	}
}

func (p *Proxy) track(c net.Conn) func() {
	p.mu.Lock()
	p.conns[c] = struct{}{}
	p.mu.Unlock()
	return func() {
		p.mu.Lock()
		delete(p.conns, c)
		p.mu.Unlock()
	}
}

func (p *Proxy) serveUDP() {
	defer p.wg.Done()
	buf := make([]byte, 65535)
	for {
		n, raddr, err := p.udp.ReadFromUDPAddrPort(buf)
		if err != nil {
			select {
			case <-p.closed:
				return
			default:
				p.logf("proxy udp read: %v", err)
				continue
			}
		}
		pkt := append([]byte(nil), buf[:n]...)
		p.wg.Add(1)
		go p.relayUDP(pkt, raddr)
	}
}

// relayUDP carries one client datagram through the impairment plan.
func (p *Proxy) relayUDP(query []byte, client netip.AddrPort) {
	defer p.wg.Done()
	v := p.inj.plan(false)
	if v.delay > 0 {
		time.Sleep(v.delay)
	}
	switch v.outcome {
	case outcomeDropQuery, outcomeBrownoutDrop:
		return
	case outcomeBrownoutServfail:
		if resp := servfailWire(query); resp != nil {
			if _, err := p.udp.WriteToUDPAddrPort(resp, client); err != nil {
				p.udpWriteErrs.Add(1)
				p.logf("proxy udp servfail write: %v", err)
			}
		}
		return
	}
	up, err := net.DialUDP("udp", nil, net.UDPAddrFromAddrPort(p.upstream))
	if err != nil {
		p.logf("proxy udp dial: %v", err)
		return
	}
	defer up.Close()
	_ = up.SetDeadline(time.Now().Add(2 * v.timeout))
	if _, err := up.Write(query); err != nil {
		p.logf("proxy udp forward: %v", err)
		return
	}
	rbuf := make([]byte, 65535)
	n, err := up.Read(rbuf)
	if err != nil {
		return // upstream really timed out; the client sees silence
	}
	resp := rbuf[:n]
	switch v.outcome {
	case outcomeDropResponse:
		return
	case outcomeCorrupt:
		// Flip the message ID and scramble a flags byte: a hardened
		// client must discard this as a mismatched/unparseable datagram.
		if len(resp) >= 3 {
			resp[0] ^= 0xFF
			resp[1] ^= 0xFF
			resp[2] ^= 0x55
		}
	}
	if v.truncate && len(resp) >= 3 {
		resp[2] |= 0x02 // TC bit
	}
	if v.reorder {
		time.Sleep(v.timeout / 2)
	}
	sends := 1
	if v.duplicate {
		sends = 2
	}
	for i := 0; i < sends; i++ {
		if _, err := p.udp.WriteToUDPAddrPort(resp, client); err != nil {
			p.udpWriteErrs.Add(1)
			p.logf("proxy udp write: %v", err)
			return
		}
	}
}

func (p *Proxy) serveTCP() {
	defer p.wg.Done()
	for {
		conn, err := p.tcp.AcceptTCP()
		if err != nil {
			select {
			case <-p.closed:
				return
			default:
				p.logf("proxy tcp accept: %v", err)
				continue
			}
		}
		p.wg.Add(1)
		go p.relayTCP(conn)
	}
}

// relayTCP impairs at connection granularity: failed or browned-out
// connections are severed immediately; surviving ones are relayed
// byte-for-byte, preserving DNS message framing end to end.
func (p *Proxy) relayTCP(conn *net.TCPConn) {
	defer p.wg.Done()
	untrack := p.track(conn)
	defer untrack()
	defer conn.Close()
	v := p.inj.plan(true)
	if v.delay > 0 {
		time.Sleep(v.delay)
	}
	switch v.outcome {
	case outcomeTCPFail, outcomeBrownoutDrop, outcomeDropQuery, outcomeDropResponse:
		return
	}
	up, err := net.DialTCP("tcp", nil, net.TCPAddrFromAddrPort(p.upstream))
	if err != nil {
		p.logf("proxy tcp dial: %v", err)
		return
	}
	untrackUp := p.track(up)
	defer untrackUp()
	defer up.Close()
	done := make(chan struct{}, 2)
	go func() { _, _ = io.Copy(up, conn); up.CloseWrite(); done <- struct{}{} }()
	go func() { _, _ = io.Copy(conn, up); conn.CloseWrite(); done <- struct{}{} }()
	<-done
	<-done
}

// servfailWire builds a minimal SERVFAIL answer for a raw wire query:
// header + question echo with QR set, RCODE=2 and every other section
// dropped.
func servfailWire(query []byte) []byte {
	if len(query) < 12 {
		return nil
	}
	qd := int(query[4])<<8 | int(query[5])
	end := 12
	for i := 0; i < qd; i++ {
		// Walk the uncompressed QNAME, then TYPE+CLASS.
		for end < len(query) && query[end] != 0 {
			if query[end]&0xC0 != 0 {
				return nil // compressed name in a query: give up
			}
			end += int(query[end]) + 1
		}
		end += 1 + 4
		if end > len(query) {
			return nil
		}
	}
	out := append([]byte(nil), query[:end]...)
	out[2] = (out[2] | 0x80) &^ 0x02 // QR=1, TC=0
	out[3] = (out[3] &^ 0x0F) | 0x02 // RCODE=SERVFAIL
	// Zero the answer/authority/additional counts; keep QDCOUNT.
	for i := 6; i < 12; i++ {
		out[i] = 0
	}
	return out
}
