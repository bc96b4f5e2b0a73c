package authserver

import (
	"bytes"
	"net"
	"net/netip"
	"testing"
	"time"

	"dnscentral/internal/dnswire"
	"dnscentral/internal/zonedb"
)

func startServer(t *testing.T, opts ...Option) *Server {
	t.Helper()
	z, err := zonedb.NewCcTLD("nl", 1000, 0, 0.5, []string{"ns1.dns.nl", "ns2.dns.nl"})
	if err != nil {
		t.Fatal(err)
	}
	s, err := Listen("127.0.0.1:0", NewEngine(z, opts...))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

func udpExchange(t *testing.T, s *Server, q *dnswire.Message) *dnswire.Message {
	t.Helper()
	conn, err := net.Dial("udp", s.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	out, err := q.Pack()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := conn.Write(out); err != nil {
		t.Fatal(err)
	}
	_ = conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	buf := make([]byte, 65535)
	n, err := conn.Read(buf)
	if err != nil {
		t.Fatal(err)
	}
	r, err := dnswire.Unpack(buf[:n])
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func tcpExchange(t *testing.T, s *Server, q *dnswire.Message) *dnswire.Message {
	t.Helper()
	conn, err := net.Dial("tcp", s.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	out, err := q.Pack()
	if err != nil {
		t.Fatal(err)
	}
	if err := WriteTCPMessage(conn, out); err != nil {
		t.Fatal(err)
	}
	_ = conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	resp, err := ReadTCPMessage(conn)
	if err != nil {
		t.Fatal(err)
	}
	r, err := dnswire.Unpack(resp)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func TestServerUDPQuery(t *testing.T) {
	s := startServer(t)
	q := dnswire.NewQuery(101, "www.d3.nl.", dnswire.TypeA).WithEdns(1232, false)
	r := udpExchange(t, s, q)
	if r.Header.ID != 101 || !r.Header.Response {
		t.Fatalf("header: %+v", r.Header)
	}
	if len(r.Authority) == 0 {
		t.Fatal("expected referral authority section")
	}
}

func TestServerTCPQuery(t *testing.T) {
	s := startServer(t)
	q := dnswire.NewQuery(102, "nl.", dnswire.TypeSOA)
	r := tcpExchange(t, s, q)
	if len(r.Answers) != 1 || r.Answers[0].Data.Type() != dnswire.TypeSOA {
		t.Fatalf("answers: %v", r.Answers)
	}
}

func TestServerTCPPipelining(t *testing.T) {
	s := startServer(t)
	conn, err := net.Dial("tcp", s.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	// Two queries on one connection.
	for i := uint16(1); i <= 2; i++ {
		q := dnswire.NewQuery(i, "nl.", dnswire.TypeNS)
		out, _ := q.Pack()
		if err := WriteTCPMessage(conn, out); err != nil {
			t.Fatal(err)
		}
	}
	_ = conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	for i := uint16(1); i <= 2; i++ {
		resp, err := ReadTCPMessage(conn)
		if err != nil {
			t.Fatal(err)
		}
		r, err := dnswire.Unpack(resp)
		if err != nil {
			t.Fatal(err)
		}
		if r.Header.ID != i {
			t.Errorf("response %d has id %d", i, r.Header.ID)
		}
	}
}

func TestServerUDPTruncationAndTCPRetry(t *testing.T) {
	s := startServer(t)
	// No EDNS and a large apex NS answer with glue: ask for NS with a
	// padded question? The apex NS + glue fits in 512, so instead force a
	// tiny advertised EDNS size.
	q := dnswire.NewQuery(103, "nl.", dnswire.TypeNS).WithEdns(512, false)
	q.Edns.UDPSize = 0 // clamps to 512 server-side; fits anyway
	r := udpExchange(t, s, q)
	if r.Header.Truncated {
		// acceptable: retry over TCP must then give the full answer
		r = tcpExchange(t, s, q)
	}
	if len(r.Answers) != 2 {
		t.Fatalf("answers: %v", r.Answers)
	}
}

func TestServerIgnoresGarbageUDP(t *testing.T) {
	s := startServer(t)
	conn, err := net.Dial("udp", s.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := conn.Write([]byte{1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	// Then a valid query must still be answered.
	q := dnswire.NewQuery(9, "nl.", dnswire.TypeSOA)
	out, _ := q.Pack()
	if _, err := conn.Write(out); err != nil {
		t.Fatal(err)
	}
	_ = conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	buf := make([]byte, 4096)
	n, err := conn.Read(buf)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := dnswire.Unpack(buf[:n]); err != nil {
		t.Fatal(err)
	}
}

func TestServerCloseIdempotentUse(t *testing.T) {
	z, _ := zonedb.NewCcTLD("nl", 10, 0, 0, []string{"ns1.dns.nl"})
	s, err := Listen("127.0.0.1:0", NewEngine(z))
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestTCPFramingRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	msg := []byte("hello dns")
	if err := WriteTCPMessage(&buf, msg); err != nil {
		t.Fatal(err)
	}
	got, err := ReadTCPMessage(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, msg) {
		t.Errorf("got %q", got)
	}
}

func TestTCPFramingRejectsOversize(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteTCPMessage(&buf, make([]byte, 70000)); err == nil {
		t.Error("oversize message accepted")
	}
}

func TestServerCloseFastWithIdleTCPConns(t *testing.T) {
	z, err := zonedb.NewCcTLD("nl", 50, 0, 0.5, []string{"ns1.dns.nl"})
	if err != nil {
		t.Fatal(err)
	}
	s, err := ListenConfig("127.0.0.1:0", NewEngine(z), ServerConfig{TCPIdleTimeout: 30 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	// Park idle connections; one has done a full exchange so the server
	// is provably inside its read loop, not just the accept queue.
	var conns []net.Conn
	for i := 0; i < 3; i++ {
		conn, err := net.Dial("tcp", s.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		defer conn.Close()
		conns = append(conns, conn)
	}
	q := dnswire.NewQuery(7, "nl.", dnswire.TypeSOA)
	out, _ := q.Pack()
	if err := WriteTCPMessage(conns[0], out); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadTCPMessage(conns[0]); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if d := time.Since(start); d > time.Second {
		t.Fatalf("Close took %v with idle TCP conns, want <1s", d)
	}
}

func TestServerTCPConnCap(t *testing.T) {
	z, err := zonedb.NewCcTLD("nl", 50, 0, 0.5, []string{"ns1.dns.nl"})
	if err != nil {
		t.Fatal(err)
	}
	s, err := ListenConfig("127.0.0.1:0", NewEngine(z), ServerConfig{MaxTCPConns: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	q := dnswire.NewQuery(1, "nl.", dnswire.TypeSOA)
	out, _ := q.Pack()
	// Fill the cap with two live connections (a completed exchange
	// guarantees each is tracked before the next dial).
	for i := 0; i < 2; i++ {
		conn, err := net.Dial("tcp", s.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		defer conn.Close()
		if err := WriteTCPMessage(conn, out); err != nil {
			t.Fatal(err)
		}
		if _, err := ReadTCPMessage(conn); err != nil {
			t.Fatal(err)
		}
	}
	// The third connection must be turned away promptly.
	extra, err := net.Dial("tcp", s.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer extra.Close()
	_ = extra.SetReadDeadline(time.Now().Add(2 * time.Second))
	if _, err := ReadTCPMessage(extra); err == nil {
		t.Fatal("over-cap connection was served")
	}
	if got := s.tcpRejected.Load(); got != 1 {
		t.Errorf("TCPRejected = %d, want 1", got)
	}
}

func TestServerTCPIdleTimeoutConfigurable(t *testing.T) {
	z, err := zonedb.NewCcTLD("nl", 50, 0, 0.5, []string{"ns1.dns.nl"})
	if err != nil {
		t.Fatal(err)
	}
	s, err := ListenConfig("127.0.0.1:0", NewEngine(z), ServerConfig{TCPIdleTimeout: 100 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	conn, err := net.Dial("tcp", s.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	start := time.Now()
	_ = conn.SetReadDeadline(time.Now().Add(3 * time.Second))
	if _, err := ReadTCPMessage(conn); err == nil {
		t.Fatal("idle connection produced a message")
	}
	if d := time.Since(start); d > 2*time.Second {
		t.Fatalf("idle hangup took %v, want ~100ms", d)
	}
}

func TestServerRecoversHandlerPanic(t *testing.T) {
	// A nil engine makes Handle panic; the per-packet recovery must
	// swallow it and count it rather than crash the serve loop.
	s := &Server{conns: make(map[*net.TCPConn]struct{})}
	q := dnswire.NewQuery(3, "nl.", dnswire.TypeSOA)
	out, _ := q.Pack()
	if resp := s.handleUDPPacket(0, out, netip.MustParseAddrPort("192.0.2.1:5353"), nil); resp != nil {
		t.Errorf("panicking handler returned a response")
	}
	if got := s.panics.Load(); got != 1 {
		t.Errorf("Panics = %d, want 1", got)
	}
}
