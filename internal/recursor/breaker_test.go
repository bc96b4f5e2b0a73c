package recursor

import (
	"testing"
	"time"
)

func TestBreakerClosedToOpenToHalfOpenToClosed(t *testing.T) {
	clk := newClock()
	b := newBreaker(BreakerConfig{Failures: 3, OpenFor: time.Second})

	if b.State() != BreakerClosed {
		t.Fatal("new breaker must start closed")
	}
	b.onFailure(clk.Now())
	b.onFailure(clk.Now())
	if !b.admit(clk.Now()) {
		t.Fatal("closed breaker below threshold must admit")
	}
	b.onFailure(clk.Now()) // third consecutive failure: trip
	if b.State() != BreakerOpen {
		t.Fatalf("state = %d after threshold, want open", b.State())
	}
	if b.admit(clk.Now()) {
		t.Fatal("open breaker must reject inside the window")
	}
	if b.rejects.Load() == 0 {
		t.Fatal("rejection not counted")
	}

	clk.Advance(1100 * time.Millisecond)
	if !b.admit(clk.Now()) {
		t.Fatal("expired window must half-open and grant the probe")
	}
	if b.State() != BreakerHalfOpen {
		t.Fatalf("state = %d, want half-open", b.State())
	}
	if b.admit(clk.Now()) {
		t.Fatal("half-open breaker must hold concurrent traffic to one probe")
	}
	b.onSuccess()
	if b.State() != BreakerClosed {
		t.Fatal("successful probe must close the breaker")
	}
	if !b.admit(clk.Now()) {
		t.Fatal("closed breaker must admit again")
	}
}

func TestBreakerFailedProbeReopens(t *testing.T) {
	clk := newClock()
	b := newBreaker(BreakerConfig{Failures: 1, OpenFor: time.Second})
	b.onFailure(clk.Now())
	clk.Advance(2 * time.Second)
	if !b.admit(clk.Now()) {
		t.Fatal("probe not granted")
	}
	b.onFailure(clk.Now())
	if b.State() != BreakerOpen {
		t.Fatal("failed probe must re-open")
	}
	if b.admit(clk.Now()) {
		t.Fatal("re-opened breaker must reject")
	}
	if got := b.opens.Load(); got != 2 {
		t.Fatalf("opens = %d, want 2", got)
	}
}

func TestBreakerOnCancelReleasesProbeSlot(t *testing.T) {
	clk := newClock()
	b := newBreaker(BreakerConfig{Failures: 1, OpenFor: time.Second})
	b.onFailure(clk.Now())
	clk.Advance(2 * time.Second)
	if !b.admit(clk.Now()) {
		t.Fatal("probe not granted")
	}
	// The probe was torn down (hedge loser) — no verdict on the upstream.
	b.onCancel()
	if b.State() != BreakerOpen {
		t.Fatal("cancelled probe must revert to open")
	}
	// The window already passed, so the next admit re-probes immediately.
	if !b.admit(clk.Now()) {
		t.Fatal("next admit after cancelled probe must re-probe")
	}
	if got := b.probes.Load(); got != 2 {
		t.Fatalf("probes = %d, want 2", got)
	}
}

func TestPickSkipsOpenBreakers(t *testing.T) {
	clk := newClock()
	a := &Upstream{Name: "a"}
	b := &Upstream{Name: "b"}
	a.observe(time.Millisecond)
	b.observe(time.Millisecond)
	p := NewPool(1, a, b)
	p.armBreakers(BreakerConfig{Failures: 1, OpenFor: time.Minute})

	a.br.onFailure(clk.Now()) // a trips open
	for i := 0; i < 20; i++ {
		u, idx := p.Pick(clk.Now())
		if u != b || idx != 1 {
			t.Fatalf("pick %d chose %v/%d with a's breaker open, want b/1", i, u, idx)
		}
	}

	b.br.onFailure(clk.Now()) // b trips too: whole pool dark
	if u, idx := p.Pick(clk.Now()); u != nil || idx != -1 {
		t.Fatalf("all-open pool picked %v/%d, want nil/-1", u, idx)
	}
	if u, _ := p.PickOther(0, clk.Now()); u != nil {
		t.Fatal("PickOther must respect open breakers")
	}
}
