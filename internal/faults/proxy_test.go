package faults

import (
	"bytes"
	"fmt"
	"net/netip"
	"strings"
	"testing"
	"time"

	"dnscentral/internal/authserver"
	"dnscentral/internal/dnswire"
	"dnscentral/internal/resolver"
	"dnscentral/internal/telemetry"
	"dnscentral/internal/zonedb"
)

func startUpstream(t *testing.T) *authserver.Server {
	t.Helper()
	z, err := zonedb.NewCcTLD("nl", 200, 0, 0.5, []string{"ns1.dns.nl"})
	if err != nil {
		t.Fatal(err)
	}
	s, err := authserver.Listen("127.0.0.1:0", authserver.NewEngine(z))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

func startProxy(t *testing.T, up *authserver.Server, cfg Config) *Proxy {
	t.Helper()
	p, err := NewProxy("127.0.0.1:0", up.Addr(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { p.Close() })
	return p
}

func TestProxyPassesCleanTraffic(t *testing.T) {
	up := startUpstream(t)
	p := startProxy(t, up, Config{})
	r := resolver.New("nl.", resolver.Config{EDNSSize: 1232})
	r.AddUpstream(resolver.FamilyV4, &resolver.NetTransport{Server: p.Addr(), Timeout: 2 * time.Second})
	for i := 0; i < 10; i++ {
		res, err := r.Resolve(fmt.Sprintf("www.d%d.nl.", i), dnswire.TypeA)
		if err != nil {
			t.Fatal(err)
		}
		if res.Delegation == "" {
			t.Fatalf("no delegation for d%d", i)
		}
	}
	if st := p.Stats(); st.Exchanges != 10 || st.Total() != 0 {
		t.Errorf("proxy stats = %+v", st)
	}
}

// TestProxyDuplicationAndCorruptionTolerated drives the hardened
// NetTransport through a proxy that duplicates every response and
// corrupts some: the resolver must survive on retries, discarding
// mismatched-ID datagrams and late duplicates as strays.
func TestProxyDuplicationAndCorruptionTolerated(t *testing.T) {
	up := startUpstream(t)
	p := startProxy(t, up, Config{
		Duplicate: 1, Corrupt: 0.3, Timeout: 100 * time.Millisecond, Seed: 3,
	})
	tr := &resolver.NetTransport{Server: p.Addr(), Timeout: 150 * time.Millisecond}
	r := resolver.New("nl.", resolver.Config{EDNSSize: 1232, Retries: 6, Seed: 3})
	r.AddUpstream(resolver.FamilyV4, tr)
	for i := 0; i < 12; i++ {
		if _, err := r.Resolve(fmt.Sprintf("www.d%d.nl.", i), dnswire.TypeA); err != nil {
			t.Fatalf("lookup %d failed under duplication+corruption: %v", i, err)
		}
	}
	st := p.Stats()
	if st.Duplicated == 0 {
		t.Error("no duplicated responses injected")
	}
	if st.Corrupted == 0 {
		t.Error("no corrupted responses injected")
	}
}

func TestProxyTCPRelayAndBrownout(t *testing.T) {
	up := startUpstream(t)
	p := startProxy(t, up, Config{})
	// A 512-byte validating resolver truncates on signed referrals and
	// retries over TCP: the relay must carry the framed stream intact.
	r := resolver.New("nl.", resolver.Config{Validate: true, EDNSSize: 512, Retries: 2})
	r.AddUpstream(resolver.FamilyV4, &resolver.NetTransport{Server: p.Addr(), Timeout: 2 * time.Second})
	for i := 0; i < 8; i++ {
		if _, err := r.Resolve(fmt.Sprintf("www.d%d.nl.", i), dnswire.TypeA); err != nil {
			t.Fatal(err)
		}
	}
	if st := r.Stats(); st.ByTCP[true] == 0 {
		t.Fatal("no TCP retries crossed the proxy")
	}
}

func TestProxyServfailBrownout(t *testing.T) {
	up := startUpstream(t)
	p := startProxy(t, up, Config{
		Brownout: Brownout{Every: 1, Len: 1, Mode: BrownoutServfail},
	})
	// Every exchange past the first is browned out; with RetryServfail
	// the resolver retries, then surfaces the SERVFAIL answer.
	r := resolver.New("nl.", resolver.Config{EDNSSize: 1232, Retries: 2, RetryServfail: true})
	r.AddUpstream(resolver.FamilyV4, &resolver.NetTransport{Server: p.Addr(), Timeout: 2 * time.Second})
	if _, err := r.Resolve("www.d1.nl.", dnswire.TypeA); err != nil {
		t.Fatalf("first (clean) lookup: %v", err)
	}
	res, err := r.Resolve("www.d2.nl.", dnswire.TypeA)
	if err != nil {
		t.Fatalf("browned-out lookup must complete with SERVFAIL, got error: %v", err)
	}
	if res.RCode != dnswire.RCodeServFail {
		t.Fatalf("rcode = %s, want SERVFAIL", res.RCode)
	}
	if st := r.Stats(); st.ServfailRetries == 0 {
		t.Error("no servfail retries counted")
	}
}

// TestProxyCountsUDPWriteErrors relays a response toward an
// undeliverable client address (port 0 ⇒ EINVAL on the sendto) and
// checks the failure is counted, not just logged — previously these
// losses were invisible in the fault accounting.
func TestProxyCountsUDPWriteErrors(t *testing.T) {
	up := startUpstream(t)
	reg := telemetry.New()
	p := startProxy(t, up, Config{Telemetry: reg})
	q := dnswire.NewQuery(9, "www.d1.nl.", dnswire.TypeA).WithEdns(1232, false)
	wire, err := q.Pack()
	if err != nil {
		t.Fatal(err)
	}
	p.RelayUDPForTest(wire, netip.MustParseAddrPort("127.0.0.1:0"))
	if got := p.udpWriteErrs.Load(); got != 1 {
		t.Fatalf("udpWriteErrs = %d, want 1", got)
	}
	var buf bytes.Buffer
	reg.WritePrometheus(&buf)
	if !strings.Contains(buf.String(), "faults_proxy_udp_write_errors_total 1") {
		t.Errorf("registry missing write-error counter:\n%s", buf.String())
	}
}

func TestServfailWire(t *testing.T) {
	q := dnswire.NewQuery(77, "www.d1.nl.", dnswire.TypeA).WithEdns(1232, false)
	wire, err := q.Pack()
	if err != nil {
		t.Fatal(err)
	}
	out := servfailWire(wire)
	if out == nil {
		t.Fatal("no servfail built")
	}
	m, err := dnswire.Unpack(out)
	if err != nil {
		t.Fatalf("servfail wire does not parse: %v", err)
	}
	if m.Header.ID != 77 || !m.Header.Response || m.Header.RCode != dnswire.RCodeServFail {
		t.Fatalf("header = %+v", m.Header)
	}
	if len(m.Questions) != 1 || m.Questions[0].Name != "www.d1.nl." {
		t.Fatalf("questions = %v", m.Questions)
	}
	if servfailWire([]byte{1, 2, 3}) != nil {
		t.Error("short query produced a servfail")
	}
}
