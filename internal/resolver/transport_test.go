package resolver

import (
	"bytes"
	"io"
	"net"
	"net/netip"
	"strings"
	"testing"
	"time"

	"dnscentral/internal/authserver"
	"dnscentral/internal/dnswire"
)

func udpAddrPort(t *testing.T, conn *net.UDPConn) netip.AddrPort {
	t.Helper()
	ap := conn.LocalAddr().(*net.UDPAddr).AddrPort()
	return netip.AddrPortFrom(ap.Addr().Unmap(), ap.Port())
}

// TestNetTransportUDPTimeout: a server that never answers must fail the
// exchange at the deadline, not hang.
func TestNetTransportUDPTimeout(t *testing.T) {
	silent, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		t.Fatal(err)
	}
	defer silent.Close()

	tr := &NetTransport{Server: udpAddrPort(t, silent), Timeout: 150 * time.Millisecond}
	start := time.Now()
	_, _, err = tr.Exchange(dnswire.NewQuery(9, "www.d1.nl.", dnswire.TypeA), false)
	elapsed := time.Since(start)
	if err == nil {
		t.Fatal("exchange against a silent server succeeded")
	}
	if !strings.Contains(err.Error(), "udp read") {
		t.Errorf("err = %v, want a udp read deadline error", err)
	}
	if elapsed < 100*time.Millisecond || elapsed > 2*time.Second {
		t.Errorf("timed out after %v, want ~150ms", elapsed)
	}
}

// TestNetTransportStrayDatagramTolerance: the hardened read loop must
// discard garbage, mismatched IDs, non-responses, and wrong-source
// datagrams, then still accept the genuine reply.
func TestNetTransportStrayDatagramTolerance(t *testing.T) {
	server, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		t.Fatal(err)
	}
	defer server.Close()
	stranger, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		t.Fatal(err)
	}
	defer stranger.Close()

	go func() {
		buf := make([]byte, 65535)
		n, client, err := server.ReadFromUDPAddrPort(buf)
		if err != nil || n < 12 {
			return
		}
		q := append([]byte(nil), buf[:n]...)

		// A plausible response with the right ID from the WRONG source:
		// only real source verification rejects this one.
		spoofed := append([]byte(nil), q...)
		spoofed[2] |= 0x80
		stranger.WriteToUDPAddrPort(spoofed, client)

		// Garbage: too short to even carry a header.
		server.WriteToUDPAddrPort([]byte{0xde, 0xad}, client)

		// Valid response shape, mismatched transaction ID.
		wrongID := append([]byte(nil), spoofed...)
		wrongID[0] ^= 0xFF
		server.WriteToUDPAddrPort(wrongID, client)

		// The query echoed back without QR set: not a response.
		server.WriteToUDPAddrPort(q, client)

		// Finally, the genuine reply.
		server.WriteToUDPAddrPort(spoofed, client)
	}()

	tr := &NetTransport{Server: udpAddrPort(t, server), Timeout: 2 * time.Second}
	q := dnswire.NewQuery(41, "www.d1.nl.", dnswire.TypeA)
	resp, _, err := tr.Exchange(q, false)
	if err != nil {
		t.Fatalf("exchange failed despite a genuine reply arriving: %v", err)
	}
	if resp.Header.ID != 41 || !resp.Header.Response {
		t.Fatalf("resp header = %+v", resp.Header)
	}
	if got := tr.strays.Load(); got != 4 {
		t.Errorf("stray datagrams = %d, want 4 (spoofed source, garbage, wrong ID, non-response)", got)
	}
}

// TestNetTransportTCPShortRead: a server that advertises a length prefix
// and then closes mid-message must produce a framing error, not a hang
// or a bogus parse.
func TestNetTransportTCPShortRead(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		if _, err := authserver.ReadTCPMessage(conn); err != nil {
			return
		}
		// Claim 256 bytes, deliver 5, hang up.
		conn.Write([]byte{0x01, 0x00, 'b', 'o', 'g', 'u', 's'})
	}()

	ap := ln.Addr().(*net.TCPAddr).AddrPort()
	tr := &NetTransport{
		Server:  netip.AddrPortFrom(ap.Addr().Unmap(), ap.Port()),
		Timeout: 2 * time.Second,
	}
	_, _, err = tr.Exchange(dnswire.NewQuery(7, "www.d1.nl.", dnswire.TypeA), true)
	if err == nil {
		t.Fatal("short TCP read succeeded")
	}
	if !strings.Contains(err.Error(), "short TCP message") {
		t.Errorf("err = %v, want a short-message framing error", err)
	}
}

func TestReadTCPMessageTruncatedStream(t *testing.T) {
	// Prefix promises 100 bytes; the stream holds 5.
	r := bytes.NewReader([]byte{0x00, 0x64, 1, 2, 3, 4, 5})
	if _, err := authserver.ReadTCPMessage(r); err == nil {
		t.Fatal("truncated stream parsed")
	}
	// A stream that dies inside the prefix itself.
	if _, err := authserver.ReadTCPMessage(bytes.NewReader([]byte{0x00})); err != io.ErrUnexpectedEOF {
		t.Fatalf("err = %v, want unexpected EOF", err)
	}
}

func TestWriteTCPMessageOversized(t *testing.T) {
	var buf bytes.Buffer
	if err := authserver.WriteTCPMessage(&buf, make([]byte, 0x10000)); err == nil {
		t.Fatal("65536-byte message accepted by 16-bit framing")
	}
	if buf.Len() != 0 {
		t.Errorf("oversized write emitted %d bytes before failing", buf.Len())
	}
	if err := authserver.WriteTCPMessage(&buf, make([]byte, 0xFFFF)); err != nil {
		t.Fatalf("65535-byte message rejected: %v", err)
	}
	if buf.Len() != 2+0xFFFF {
		t.Errorf("framed length = %d", buf.Len())
	}
}
