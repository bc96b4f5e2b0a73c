package recursor

import (
	"encoding/binary"
	"net/netip"
	"testing"
	"time"

	"dnscentral/internal/dnswire"
)

// suppressed reports whether g currently suppresses zone.
func suppressed(g *floodGuard, zone string) bool {
	now := g.now()
	g.mu.Lock()
	defer g.mu.Unlock()
	z := g.zones[zone]
	return z != nil && !now.After(z.suppUntil)
}

func TestTTLOffsetsAndClamp(t *testing.T) {
	m := dnswire.NewQuery(0, "www.d1.nl.", dnswire.TypeA)
	m.Header.Response = true
	m.Answers = []dnswire.RR{
		{Name: "www.d1.nl.", Class: dnswire.ClassIN, TTL: 3600,
			Data: dnswire.AData{Addr: netip.MustParseAddr("192.0.2.1")}},
		{Name: "www.d1.nl.", Class: dnswire.ClassIN, TTL: 10,
			Data: dnswire.AData{Addr: netip.MustParseAddr("192.0.2.2")}},
	}
	m.WithEdns(1232, false)
	wire, err := m.Pack()
	if err != nil {
		t.Fatal(err)
	}
	offs := ttlOffsets(wire)
	// Two A records; the OPT pseudo-RR must be excluded.
	if len(offs) != 2 {
		t.Fatalf("ttlOffsets found %d records, want 2 (OPT excluded)", len(offs))
	}
	for i, off := range offs {
		want := uint32(3600)
		if i == 1 {
			want = 10
		}
		if got := binary.BigEndian.Uint32(wire[off:]); got != want {
			t.Fatalf("offset %d reads TTL %d, want %d", off, got, want)
		}
	}
	clampTTLs(wire, offs, 30)
	if got := binary.BigEndian.Uint32(wire[offs[0]:]); got != 30 {
		t.Fatalf("TTL not clamped: %d, want 30", got)
	}
	if got := binary.BigEndian.Uint32(wire[offs[1]:]); got != 10 {
		t.Fatalf("already-low TTL modified: %d, want 10", got)
	}
	// Re-parse: the patched message must stay well-formed and the OPT's
	// extended-RCODE/flags TTL untouched.
	m2, err := dnswire.Unpack(wire)
	if err != nil {
		t.Fatalf("clamped message unparseable: %v", err)
	}
	if m2.Answers[0].TTL != 30 || m2.Answers[1].TTL != 10 {
		t.Fatalf("parsed TTLs = %d/%d, want 30/10", m2.Answers[0].TTL, m2.Answers[1].TTL)
	}
	if m2.Edns == nil {
		t.Fatal("OPT lost after clamp")
	}

	if ttlOffsets([]byte{1, 2, 3}) != nil {
		t.Fatal("malformed message must yield nil offsets")
	}
}

func TestParentZone(t *testing.T) {
	cases := []struct{ qname, origin, want string }{
		{"www.d42.nl.", "nl.", "d42.nl."},
		{"w0abc.d1.nl.", "nl.", "d1.nl."},
		{"junk.nl.", "nl.", "nl."},
		{"d1.nl.", "nl.", "nl."},
		{"nl.", "nl.", "nl."},
		{"com.", "nl.", "nl."},
		{"a.b.c.d1.nl.", "nl.", "b.c.d1.nl."},
	}
	for _, c := range cases {
		if got := parentZone(c.qname, c.origin); got != c.want {
			t.Errorf("parentZone(%q, %q) = %q, want %q", c.qname, c.origin, got, c.want)
		}
	}
}

func TestRateLimiterPassSlipDrop(t *testing.T) {
	clk := newClock()
	l := newRateLimiter(RRLConfig{RatePerSec: 2, Burst: 4, SlipEvery: 2}, clk.Now)
	client := netip.MustParseAddr("192.0.2.7")

	for i := 0; i < 4; i++ {
		if v := l.admit(client); v != RRLPass {
			t.Fatalf("query %d within burst = %v, want pass", i, v)
		}
	}
	// Bucket dry: over-limit queries alternate drop/slip (SlipEvery 2).
	if v := l.admit(client); v != RRLDrop {
		t.Fatalf("first over-limit = %v, want drop", v)
	}
	if v := l.admit(client); v != RRLSlip {
		t.Fatalf("second over-limit = %v, want slip", v)
	}
	// A second's refill buys RatePerSec more passes.
	clk.Advance(time.Second)
	if v := l.admit(client); v != RRLPass {
		t.Fatalf("post-refill = %v, want pass", v)
	}
	if v := l.admit(client); v != RRLPass {
		t.Fatalf("post-refill second = %v, want pass", v)
	}
	if v := l.admit(client); v == RRLPass {
		t.Fatal("budget exceeded again, must not pass")
	}
	// A different client has its own bucket.
	if v := l.admit(netip.MustParseAddr("192.0.2.8")); v != RRLPass {
		t.Fatalf("fresh client = %v, want pass", v)
	}
}

func TestRateLimiterBoundsClientTable(t *testing.T) {
	clk := newClock()
	l := newRateLimiter(RRLConfig{RatePerSec: 1, MaxClients: 8}, clk.Now)
	for i := 0; i < 100; i++ {
		a := netip.AddrFrom4([4]byte{10, 0, byte(i >> 8), byte(i)})
		l.admit(a)
	}
	l.mu.Lock()
	n := len(l.buckets)
	l.mu.Unlock()
	if n > 8 {
		t.Fatalf("bucket table grew to %d, want ≤ 8", n)
	}
}

func TestFloodGuardSuppressesAndProbes(t *testing.T) {
	clk := newClock()
	g := newFloodGuard(FloodConfig{NXPerSec: 5, Hold: 5 * time.Second, ProbeRate: 1}, clk.Now)
	zone := "d1.nl."

	if !g.admitMiss(zone) {
		t.Fatal("unknown zone must admit")
	}
	for i := 0; i < 5; i++ {
		g.noteNXDomain(zone)
	}
	if !suppressed(g, zone) {
		t.Fatal("zone must be suppressed at the NXDOMAIN threshold")
	}
	// Probe trickle: one miss per second still flows.
	if !g.admitMiss(zone) {
		t.Fatal("first probe must be admitted")
	}
	if g.admitMiss(zone) {
		t.Fatal("second probe within the same second must be refused")
	}
	clk.Advance(time.Second)
	if !g.admitMiss(zone) {
		t.Fatal("probe budget must refill each second")
	}
	// Other zones are untouched.
	if !g.admitMiss("d2.nl.") {
		t.Fatal("unrelated zone must not be suppressed")
	}
	// Quiet hold expiry lifts the suppression.
	clk.Advance(6 * time.Second)
	if suppressed(g, zone) {
		t.Fatal("suppression must lift after the hold")
	}
	if !g.admitMiss(zone) {
		t.Fatal("recovered zone must admit freely")
	}
}

func TestSlipResponseShape(t *testing.T) {
	f := newFixture(t)
	r := f.recursor(Config{})
	q := query(t, 0xbeef, "www.d1.nl.", dnswire.TypeA, 1232, false)
	resp := r.SlipResponse(q, nil)
	if resp == nil {
		t.Fatal("slip response missing")
	}
	if len(resp) != dnswire.HeaderLen {
		t.Fatalf("slip length = %d, want bare header (negative amplification)", len(resp))
	}
	if resp[0] != 0xbe || resp[1] != 0xef {
		t.Fatal("slip must echo the query ID")
	}
	if resp[2]&flagQR == 0 || resp[2]&flagTC == 0 {
		t.Fatal("slip must set QR and TC")
	}
	// A response packet must not be slipped back (reflection guard).
	q[2] |= flagQR
	if r.SlipResponse(q, nil) != nil {
		t.Fatal("slip for a response packet")
	}
}
