package authserver

import (
	"net/netip"
	"testing"
	"time"

	"dnscentral/internal/dnswire"
)

func cookieQuery(id uint16, data []byte) *dnswire.Message {
	q := dnswire.NewQuery(id, "d1.nl.", dnswire.TypeA).WithEdns(1232, false)
	q.Edns.Options = append(q.Edns.Options, dnswire.EDNSOption{
		Code: dnswire.EDNSOptionCookie, Data: data,
	})
	return q
}

func TestCookieEchoedWithServerCookie(t *testing.T) {
	e := nlEngine(t)
	clientCookie := []byte{1, 2, 3, 4, 5, 6, 7, 8}
	r := e.Handle(cookieQuery(1, clientCookie), testClient, false)
	if r.Edns == nil {
		t.Fatal("response lost EDNS")
	}
	var got []byte
	for _, opt := range r.Edns.Options {
		if opt.Code == dnswire.EDNSOptionCookie {
			got = opt.Data
		}
	}
	if len(got) != ClientCookieLen+ServerCookieLen {
		t.Fatalf("cookie option = %d bytes", len(got))
	}
	for i := range clientCookie {
		if got[i] != clientCookie[i] {
			t.Fatal("client cookie not echoed")
		}
	}
	st := e.Stats()
	if st.CookieSeen != 1 || st.CookieValid != 0 {
		t.Fatalf("stats: %+v", st)
	}
}

func TestCookieRoundTripValidates(t *testing.T) {
	e := nlEngine(t)
	clientCookie := []byte{9, 9, 9, 9, 9, 9, 9, 9}
	r := e.Handle(cookieQuery(1, clientCookie), testClient, false)
	var full []byte
	for _, opt := range r.Edns.Options {
		if opt.Code == dnswire.EDNSOptionCookie {
			full = opt.Data
		}
	}
	// Present the full cookie back: must validate.
	_ = e.Handle(cookieQuery(2, full), testClient, false)
	st := e.Stats()
	if st.CookieValid != 1 {
		t.Fatalf("stats: %+v", st)
	}
	// The same cookie from a different address must NOT validate.
	other := netip.MustParseAddr("198.51.100.77")
	_ = e.Handle(cookieQuery(3, full), other, false)
	if e.Stats().CookieValid != 1 {
		t.Fatal("cookie validated for the wrong client address")
	}
}

func TestCookieExemptsFromRRL(t *testing.T) {
	now := time.Unix(0, 0)
	e := nlEngine(t,
		WithRRL(RRLConfig{RatePerSec: 0.0001, Burst: 1, SlipEvery: 1}),
		WithClock(func() time.Time { return now }),
	)
	clientCookie := []byte{5, 5, 5, 5, 5, 5, 5, 5}
	// First query consumes the burst and returns the server cookie.
	r := e.Handle(cookieQuery(1, clientCookie), testClient, false)
	var full []byte
	for _, opt := range r.Edns.Options {
		if opt.Code == dnswire.EDNSOptionCookie {
			full = opt.Data
		}
	}
	// Without the server cookie, subsequent queries slip (TC=1).
	r = e.Handle(cookieQuery(2, clientCookie), testClient, false)
	if !r.Header.Truncated {
		t.Fatal("cookie-less repeat not rate limited")
	}
	// With a valid server cookie, the client bypasses RRL entirely.
	for i := uint16(3); i < 20; i++ {
		r = e.Handle(cookieQuery(i, full), testClient, false)
		if r == nil || r.Header.Truncated {
			t.Fatalf("cookie-validated query %d rate limited", i)
		}
	}
}

func TestMalformedCookieIgnored(t *testing.T) {
	e := nlEngine(t)
	r := e.Handle(cookieQuery(1, []byte{1, 2, 3}), testClient, false) // too short
	if r.Header.RCode != dnswire.RCodeNoError {
		t.Fatalf("rcode = %s", r.Header.RCode)
	}
	if e.Stats().CookieSeen != 0 {
		t.Fatal("malformed cookie counted as seen")
	}
}

func TestCookieSecretsDiffer(t *testing.T) {
	e1, e2 := nlEngine(t), nlEngine(t)
	e1.cookieSecret, e2.cookieSecret = 1, 2
	cc := [ClientCookieLen]byte{1, 2, 3, 4, 5, 6, 7, 8}
	s1 := e1.serverCookie(testClient, cc)
	s2 := e2.serverCookie(testClient, cc)
	if s1 == s2 {
		t.Fatal("different secrets produced the same server cookie")
	}
}
