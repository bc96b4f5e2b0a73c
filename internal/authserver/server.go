package authserver

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"net/netip"
	"sync"
	"sync/atomic"
	"time"

	"dnscentral/internal/dnswire"
	"dnscentral/internal/telemetry"
	"dnscentral/internal/udpengine"
)

// ServerConfig tunes the transport hardening knobs.
type ServerConfig struct {
	// TCPIdleTimeout is how long an idle TCP connection may sit between
	// messages before the server hangs up (default 10s).
	TCPIdleTimeout time.Duration
	// MaxTCPConns caps concurrently served TCP connections; excess
	// connections are accepted and immediately closed so clients see a
	// fast reset instead of a hang (default 128, negative = unlimited).
	MaxTCPConns int
	// UDPBatch is the datagrams-per-syscall budget of the batched UDP
	// engine (default 32; see internal/udpengine).
	UDPBatch int
	// UDPSockets is the UDP receive parallelism: SO_REUSEPORT sockets on
	// Linux, reader goroutines on the portable fallback (default
	// GOMAXPROCS capped at 8).
	UDPSockets int
	// UDPPortable forces the one-datagram-per-syscall portable engine —
	// the pre-batching baseline, kept for debugging and benchmarking.
	UDPPortable bool
	// UDPGSO enables segmentation offload on the batched engine:
	// equal-destination response runs coalesce into UDP_SEGMENT
	// super-datagrams and GRO-coalesced receives are split back into
	// per-query packets. Probed at bind with automatic fallback.
	UDPGSO bool
	// UDPPin pins each socket loop to a CPU core and steers reuseport
	// delivery to the receiving core's socket (Linux batched engine).
	UDPPin bool
	// Telemetry, when set, publishes live transport metrics (datagram
	// and connection counters, the active-connection gauge, the
	// udpengine_* socket-plane family) on the registry; pair it with
	// WithTelemetry on the Engine for the RCODE mix. Nil keeps the
	// serve loops telemetry-free.
	Telemetry *telemetry.Registry
}

func (c ServerConfig) withDefaults() ServerConfig {
	if c.TCPIdleTimeout <= 0 {
		c.TCPIdleTimeout = 10 * time.Second
	}
	if c.MaxTCPConns == 0 {
		c.MaxTCPConns = 128
	}
	return c
}

// Server binds an Engine to real UDP and TCP sockets, speaking standard
// DNS transport framing (RFC 1035 §4.2: two-byte length prefix on TCP).
// The UDP side rides the batched socket engine (internal/udpengine):
// recvmmsg/sendmmsg with SO_REUSEPORT sharding on Linux, the classic
// one-datagram loop elsewhere; responses are appended straight into the
// engine's write arena via AppendResponse, so the per-datagram response
// allocation the old PackResponse path paid is gone.
type Server struct {
	engine *Engine
	cfg    ServerConfig

	udp udpengine.Engine
	tcp *net.TCPListener

	wg     sync.WaitGroup
	closed chan struct{}

	mu    sync.Mutex
	conns map[*net.TCPConn]struct{}

	tcpRejected atomic.Uint64
	panics      atomic.Uint64

	// Telemetry mirrors (nil ⇒ no-ops).
	tmDatagrams *telemetry.Counter
	tmTCPConns  *telemetry.Counter

	// Logf, when non-nil, receives per-error diagnostics.
	Logf func(format string, args ...any)
}

// Listen starts a server on addr (e.g. "127.0.0.1:0" — UDP and TCP bind the
// same port) with default hardening limits. The returned server is
// already serving.
func Listen(addr string, engine *Engine) (*Server, error) {
	return ListenConfig(addr, engine, ServerConfig{})
}

// ListenConfig starts a server with explicit transport limits.
func ListenConfig(addr string, engine *Engine, cfg ServerConfig) (*Server, error) {
	tcpLn, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("authserver: tcp listen: %w", err)
	}
	s := &Server{
		engine: engine,
		cfg:    cfg.withDefaults(),
		tcp:    tcpLn.(*net.TCPListener),
		closed: make(chan struct{}),
		conns:  make(map[*net.TCPConn]struct{}),
	}
	if reg := s.cfg.Telemetry; reg != nil {
		s.tmDatagrams = reg.Counter("authserver_datagrams_total")
		s.tmTCPConns = reg.Counter("authserver_tcp_conns_total")
		reg.CounterFunc("authserver_tcp_rejected_total", s.tcpRejected.Load)
		reg.CounterFunc("authserver_panics_total", s.panics.Load)
		reg.GaugeFunc("authserver_active_tcp_conns", func() int64 {
			s.mu.Lock()
			defer s.mu.Unlock()
			return int64(len(s.conns))
		})
	}
	// Bind UDP to the exact port TCP got (relevant for addr with port 0)
	// through the batched socket engine.
	tcpAddr := tcpLn.Addr().(*net.TCPAddr)
	udpAddr := net.JoinHostPort(tcpAddr.IP.String(), fmt.Sprint(tcpAddr.Port))
	s.udp, err = udpengine.Listen(udpAddr, s.handleUDPPacket, udpengine.Config{
		Batch:     s.cfg.UDPBatch,
		Sockets:   s.cfg.UDPSockets,
		Portable:  s.cfg.UDPPortable,
		GSO:       s.cfg.UDPGSO,
		PinCPUs:   s.cfg.UDPPin,
		Telemetry: s.cfg.Telemetry,
		Logf:      s.logf,
	})
	if err != nil {
		tcpLn.Close()
		return nil, fmt.Errorf("authserver: udp listen: %w", err)
	}
	s.wg.Add(1)
	go s.serveTCP()
	return s, nil
}

// Addr returns the bound address (same port for UDP and TCP).
func (s *Server) Addr() netip.AddrPort {
	return s.udp.Addr()
}

// Engine returns the underlying engine.
func (s *Server) Engine() *Engine { return s.engine }

// Close stops serving: it closes the listeners, actively severs
// in-flight TCP connections (so shutdown never waits out an idle
// timeout), and waits for every handler to drain.
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

// handleUDPPacket serves one datagram from the engine's receive arena,
// appending the response into the engine's write arena (resp) so the
// fresh-buffer-per-response allocation of the old PackResponse path is
// gone. A panic in the engine poisons only that datagram, not the
// socket loop.
func (s *Server) handleUDPPacket(shard int, pkt []byte, raddr netip.AddrPort, resp []byte) (out []byte) {
	defer func() {
		if p := recover(); p != nil {
			out = nil
			s.panics.Add(1)
			s.logf("udp handler panic from %s: %v", raddr, p)
		}
	}()
	s.tmDatagrams.Shard(shard).Inc()
	q, err := dnswire.Unpack(pkt)
	if err != nil {
		s.logf("udp parse from %s: %v", raddr, err)
		return nil
	}
	r := s.engine.Handle(q, raddr.Addr(), false)
	if r == nil {
		return nil // RRL drop
	}
	out, err = AppendResponse(resp, r, q, false)
	if err != nil {
		s.logf("udp pack: %v", err)
		return nil
	}
	return out
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

// trackConn registers a connection against the concurrency cap; false
// means the cap is hit (or the server is closing) and the conn must be
// turned away.
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
	s.tmTCPConns.Inc()
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
	for {
		_ = conn.SetReadDeadline(time.Now().Add(s.cfg.TCPIdleTimeout))
		msg, err := ReadTCPMessage(conn)
		if err != nil {
			if !errors.Is(err, io.EOF) {
				s.logf("tcp read from %s: %v", raddr, err)
			}
			return
		}
		q, err := dnswire.Unpack(msg)
		if err != nil {
			s.logf("tcp parse from %s: %v", raddr, err)
			return
		}
		r := s.engine.Handle(q, raddr.Addr(), true)
		if r == nil {
			return
		}
		out, err := PackResponse(r, q, true)
		if err != nil {
			s.logf("tcp pack: %v", err)
			return
		}
		if err := WriteTCPMessage(conn, out); err != nil {
			s.logf("tcp write to %s: %v", raddr, err)
			return
		}
	}
}

// ReadTCPMessage reads one length-prefixed DNS message.
func ReadTCPMessage(r io.Reader) ([]byte, error) {
	var lenb [2]byte
	if _, err := io.ReadFull(r, lenb[:]); err != nil {
		return nil, err
	}
	n := binary.BigEndian.Uint16(lenb[:])
	msg := make([]byte, n)
	if _, err := io.ReadFull(r, msg); err != nil {
		return nil, fmt.Errorf("authserver: short TCP message: %w", err)
	}
	return msg, nil
}

// WriteTCPMessage writes one length-prefixed DNS message.
func WriteTCPMessage(w io.Writer, msg []byte) error {
	if len(msg) > 0xFFFF {
		return fmt.Errorf("authserver: message %d bytes exceeds TCP framing", len(msg))
	}
	var lenb [2]byte
	binary.BigEndian.PutUint16(lenb[:], uint16(len(msg)))
	if _, err := w.Write(lenb[:]); err != nil {
		return err
	}
	_, err := w.Write(msg)
	return err
}
