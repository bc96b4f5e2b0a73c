package recursor

import (
	"errors"
	"fmt"
	"io"
	"net"
	"net/netip"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"dnscentral/internal/authserver"
	"dnscentral/internal/telemetry"
	"dnscentral/internal/udpengine"
)

// ServerConfig tunes the stub-facing transport.
type ServerConfig struct {
	// UDPWorkers is the UDP receive parallelism: SO_REUSEPORT sockets on
	// the Linux batched engine, reader goroutines sharing one socket on
	// the portable fallback. Each worker owns its own Scratch and arena
	// slots (default GOMAXPROCS, capped at 8). A cold miss blocks only
	// its own worker; cache hits on the other workers keep flowing.
	UDPWorkers int
	// UDPBatch is the datagrams-per-syscall budget of the batched UDP
	// engine (default 32; see internal/udpengine).
	UDPBatch int
	// UDPPortable forces the one-datagram-per-syscall portable engine.
	UDPPortable bool
	// UDPGSO enables segmentation offload on the batched engine:
	// equal-destination response runs coalesce into UDP_SEGMENT
	// super-datagrams and GRO-coalesced receives are split back into
	// per-query packets. Probed at bind with automatic fallback.
	UDPGSO bool
	// UDPPin pins each socket loop to a CPU core and steers reuseport
	// delivery to the receiving core's socket (Linux batched engine).
	UDPPin bool
	// TCPIdleTimeout is how long an idle stub TCP connection may sit
	// between messages (default 10s).
	TCPIdleTimeout time.Duration
	// MaxTCPConns caps concurrent stub TCP connections (default 128,
	// negative = unlimited).
	MaxTCPConns int
	// Telemetry, when set, publishes the udpengine_* socket-plane
	// metrics (per-socket datagram counters, batch-size histogram,
	// syscalls saved). Typically the same registry the Recursor itself
	// publishes on.
	Telemetry *telemetry.Registry
}

func (c ServerConfig) withDefaults() ServerConfig {
	if c.UDPWorkers <= 0 {
		c.UDPWorkers = runtime.GOMAXPROCS(0)
		if c.UDPWorkers > 8 {
			c.UDPWorkers = 8
		}
	}
	if c.TCPIdleTimeout <= 0 {
		c.TCPIdleTimeout = 10 * time.Second
	}
	if c.MaxTCPConns == 0 {
		c.MaxTCPConns = 128
	}
	return c
}

// Server binds a Recursor to real UDP and TCP sockets. The UDP side
// rides the batched socket engine (internal/udpengine): per-socket
// loops each own a Scratch, and both query and response bytes live in
// the engine's pooled batch arenas — the response buffer the old read
// loop kept per worker is now an arena slot, so the hit path stays
// allocation-free from recvmmsg to sendmmsg.
type Server struct {
	rec *Recursor
	cfg ServerConfig

	udp     udpengine.Engine
	scratch []*Scratch
	tcp     *net.TCPListener

	wg     sync.WaitGroup
	closed chan struct{}

	mu    sync.Mutex
	conns map[*net.TCPConn]struct{}

	tcpRejected atomic.Uint64
	panics      atomic.Uint64

	// Logf, when non-nil, receives per-error diagnostics.
	Logf func(format string, args ...any)
}

// Serve starts a server on addr ("127.0.0.1:0" — UDP and TCP bind the
// same port). The returned server is already serving.
func Serve(addr string, rec *Recursor, cfg ServerConfig) (*Server, error) {
	tcpLn, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("recursor: tcp listen: %w", err)
	}
	s := &Server{
		rec:    rec,
		cfg:    cfg.withDefaults(),
		tcp:    tcpLn.(*net.TCPListener),
		closed: make(chan struct{}),
		conns:  make(map[*net.TCPConn]struct{}),
	}
	s.scratch = make([]*Scratch, s.cfg.UDPWorkers)
	for i := range s.scratch {
		s.scratch[i] = NewScratch()
	}
	tcpAddr := tcpLn.Addr().(*net.TCPAddr)
	udpAddr := net.JoinHostPort(tcpAddr.IP.String(), fmt.Sprint(tcpAddr.Port))
	s.udp, err = udpengine.Listen(udpAddr, s.handleUDPPacket, udpengine.Config{
		Batch:     s.cfg.UDPBatch,
		Sockets:   s.cfg.UDPWorkers,
		Portable:  s.cfg.UDPPortable,
		GSO:       s.cfg.UDPGSO,
		PinCPUs:   s.cfg.UDPPin,
		Telemetry: s.cfg.Telemetry,
		Logf:      s.logf,
	})
	if err != nil {
		tcpLn.Close()
		return nil, fmt.Errorf("recursor: udp listen: %w", err)
	}
	s.wg.Add(1)
	go s.serveTCP()
	return s, nil
}

// Addr returns the bound address (same port for UDP and TCP).
func (s *Server) Addr() netip.AddrPort {
	return s.udp.Addr()
}

// Close stops serving: listeners closed, in-flight TCP connections
// severed, every worker drained.
func (s *Server) Close() error {
	close(s.closed)
	s.udp.Close()
	s.tcp.Close()
	s.mu.Lock()
	for c := range s.conns {
		c.Close()
	}
	s.mu.Unlock()
	s.wg.Wait()
	return nil
}

func (s *Server) logf(format string, args ...any) {
	if s.Logf != nil {
		s.Logf(format, args...)
	}
}

// handleUDPPacket serves one datagram on its socket loop: pkt lives in
// the engine's receive arena, out is the response slot from the write
// arena (replacing the per-worker response buffer the old read loop
// allocated), and the Scratch is the shard's own. A panic poisons only
// that datagram, not the socket loop.
func (s *Server) handleUDPPacket(shard int, pkt []byte, raddr netip.AddrPort, out []byte) (resp []byte) {
	defer func() {
		if p := recover(); p != nil {
			resp = nil
			s.panics.Add(1)
			s.logf("udp handler panic from %s: %v", raddr, p)
		}
	}()
	// Front-line rate limit, before any parsing: drops stay silent,
	// slips answer TC=1 so a real stub retries over TCP (which is
	// exempt — the handshake proves the source address).
	switch s.rec.AdmitStub(raddr.Addr()) {
	case RRLDrop:
		return nil
	case RRLSlip:
		return s.rec.SlipResponse(pkt, out)
	}
	return s.rec.HandleWire(pkt, out, false, s.scratch[shard])
}

func (s *Server) serveTCP() {
	defer s.wg.Done()
	for {
		conn, err := s.tcp.AcceptTCP()
		if err != nil {
			select {
			case <-s.closed:
				return
			default:
				s.logf("tcp accept: %v", err)
				continue
			}
		}
		if !s.trackConn(conn) {
			s.tcpRejected.Add(1)
			conn.Close()
			continue
		}
		s.wg.Add(1)
		go s.serveTCPConn(conn)
	}
}

func (s *Server) trackConn(conn *net.TCPConn) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	select {
	case <-s.closed:
		return false
	default:
	}
	if s.cfg.MaxTCPConns > 0 && len(s.conns) >= s.cfg.MaxTCPConns {
		return false
	}
	s.conns[conn] = struct{}{}
	return true
}

func (s *Server) untrackConn(conn *net.TCPConn) {
	s.mu.Lock()
	delete(s.conns, conn)
	s.mu.Unlock()
}

func (s *Server) serveTCPConn(conn *net.TCPConn) {
	defer s.wg.Done()
	defer s.untrackConn(conn)
	defer conn.Close()
	defer func() {
		if p := recover(); p != nil {
			s.panics.Add(1)
			s.logf("tcp handler panic from %s: %v", conn.RemoteAddr(), p)
		}
	}()
	raddr := conn.RemoteAddr().(*net.TCPAddr).AddrPort()
	out := make([]byte, 0, 1<<16)
	sc := NewScratch()
	for {
		_ = conn.SetReadDeadline(time.Now().Add(s.cfg.TCPIdleTimeout))
		msg, err := authserver.ReadTCPMessage(conn)
		if err != nil {
			if !errors.Is(err, io.EOF) {
				s.logf("tcp read from %s: %v", raddr, err)
			}
			return
		}
		resp := s.rec.HandleWire(msg, out[:0], true, sc)
		if resp == nil {
			return
		}
		if err := authserver.WriteTCPMessage(conn, resp); err != nil {
			s.logf("tcp write to %s: %v", raddr, err)
			return
		}
	}
}
