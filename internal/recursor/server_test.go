package recursor

import (
	"net"
	"testing"
	"time"

	"dnscentral/internal/authserver"
	"dnscentral/internal/dnswire"
	"dnscentral/internal/resolver"
)

// startServer boots a recursor server over a real authserver, both on
// loopback sockets — the full wire path stubs traverse.
func startServer(t *testing.T) *Server {
	t.Helper()
	f := newFixture(t)
	auth, err := authserver.Listen("127.0.0.1:0", f.engine)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { auth.Close() })
	rec := New(Config{Origin: "nl.", Seed: 1}, NewPool(1,
		&Upstream{Name: "cloudA", Transport: &resolver.NetTransport{Server: auth.Addr()}},
	))
	srv, err := Serve("127.0.0.1:0", rec, ServerConfig{UDPWorkers: 2})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	return srv
}

func TestServerUDPEndToEnd(t *testing.T) {
	srv := startServer(t)
	conn, err := net.Dial("udp", srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(5 * time.Second))

	q := query(t, 0x55aa, "www.d3.nl.", dnswire.TypeA, 1232, false)
	if _, err := conn.Write(q); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 65535)
	n, err := conn.Read(buf)
	if err != nil {
		t.Fatal(err)
	}
	m, err := dnswire.Unpack(buf[:n])
	if err != nil {
		t.Fatal(err)
	}
	if m.Header.ID != 0x55aa || m.Header.RCode != dnswire.RCodeNoError || !m.Header.RecursionAvailable {
		t.Fatalf("header = %+v", m.Header)
	}

	// Second ask from the socket: a cache hit over the wire.
	if _, err := conn.Write(q); err != nil {
		t.Fatal(err)
	}
	if _, err := conn.Read(buf); err != nil {
		t.Fatal(err)
	}
	if st := srv.rec.Cache().Stats(); st.Hits != 1 {
		t.Fatalf("hits = %d, want 1", st.Hits)
	}
}

func TestServerTCPEndToEnd(t *testing.T) {
	srv := startServer(t)
	conn, err := net.Dial("tcp", srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(5 * time.Second))

	q := query(t, 0x77, "www.d4.nl.", dnswire.TypeA, 1232, false)
	if err := authserver.WriteTCPMessage(conn, q); err != nil {
		t.Fatal(err)
	}
	msg, err := authserver.ReadTCPMessage(conn)
	if err != nil {
		t.Fatal(err)
	}
	m, err := dnswire.Unpack(msg)
	if err != nil {
		t.Fatal(err)
	}
	if m.Header.ID != 0x77 || m.Header.RCode != dnswire.RCodeNoError {
		t.Fatalf("header = %+v", m.Header)
	}
	// Pipelined second message on the same connection.
	if err := authserver.WriteTCPMessage(conn, q); err != nil {
		t.Fatal(err)
	}
	if _, err := authserver.ReadTCPMessage(conn); err != nil {
		t.Fatal(err)
	}
}

func TestServerGarbageDoesNotKillWorkers(t *testing.T) {
	srv := startServer(t)
	conn, err := net.Dial("udp", srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(5 * time.Second))
	if _, err := conn.Write([]byte{0xde, 0xad}); err != nil {
		t.Fatal(err)
	}
	// The garbage gets no reply; a real query afterwards still works.
	q := query(t, 9, "www.d6.nl.", dnswire.TypeA, 1232, false)
	if _, err := conn.Write(q); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 65535)
	if _, err := conn.Read(buf); err != nil {
		t.Fatal(err)
	}
}
