package faults

import (
	"errors"
	"testing"
	"time"

	"dnscentral/internal/dnswire"
)

// fakeInner is a perfect inner transport that answers every query.
type fakeInner struct {
	calls int
	tcp   int
}

func (f *fakeInner) Exchange(q *dnswire.Message, tcp bool) (*dnswire.Message, time.Duration, error) {
	f.calls++
	if tcp {
		f.tcp++
	}
	r := &dnswire.Message{
		Header: dnswire.Header{
			ID: q.Header.ID, Response: true, RCode: dnswire.RCodeNoError,
		},
		Questions: q.Questions,
	}
	return r, time.Millisecond, nil
}

func query(id uint16) *dnswire.Message {
	return dnswire.NewQuery(id, "www.d1.nl.", dnswire.TypeA)
}

func TestConfigEnabled(t *testing.T) {
	if (Config{}).Enabled() {
		t.Error("zero config enabled")
	}
	if (Config{Seed: 42}).Enabled() {
		t.Error("seed-only config enabled")
	}
	for _, c := range []Config{
		{Loss: 0.1}, {Duplicate: 0.1}, {Reorder: 0.1}, {Corrupt: 0.1},
		{Truncate: 0.1}, {TCPFail: 0.1}, {Latency: time.Millisecond},
		{Jitter: time.Millisecond}, {Brownout: Brownout{Every: 10, Len: 2}},
	} {
		if !c.Enabled() {
			t.Errorf("config %+v not enabled", c)
		}
	}
}

func TestParseBrownoutMode(t *testing.T) {
	if m, err := ParseBrownoutMode("servfail"); err != nil || m != BrownoutServfail {
		t.Errorf("servfail: %v %v", m, err)
	}
	if m, err := ParseBrownoutMode(""); err != nil || m != BrownoutDrop {
		t.Errorf("empty: %v %v", m, err)
	}
	if _, err := ParseBrownoutMode("flaky"); err == nil {
		t.Error("bad mode accepted")
	}
	if BrownoutDrop.String() != "drop" || BrownoutServfail.String() != "servfail" {
		t.Error("mode names")
	}
}

func TestInjectorDeterministicDecisionStream(t *testing.T) {
	cfg := Config{
		Loss: 0.2, Duplicate: 0.1, Reorder: 0.1, Corrupt: 0.05,
		Truncate: 0.05, TCPFail: 0.3, Jitter: 5 * time.Millisecond,
		Brownout: Brownout{Every: 30, Len: 4, Mode: BrownoutServfail},
		Seed:     99,
	}
	a, b := NewInjector(cfg), NewInjector(cfg)
	for i := 0; i < 500; i++ {
		tcp := i%7 == 0
		va, vb := a.plan(tcp), b.plan(tcp)
		if va != vb {
			t.Fatalf("draw %d diverged: %+v vs %+v", i, va, vb)
		}
	}
	if a.Stats() != b.Stats() {
		t.Fatalf("stats diverged: %+v vs %+v", a.Stats(), b.Stats())
	}
}

func TestBrownoutSchedule(t *testing.T) {
	inj := NewInjector(Config{Brownout: Brownout{Every: 10, Len: 3, Mode: BrownoutDrop}})
	var downs []int
	for i := 0; i < 30; i++ {
		if v := inj.plan(false); v.outcome == outcomeBrownoutDrop {
			downs = append(downs, i)
		}
	}
	want := []int{10, 11, 12, 20, 21, 22}
	if len(downs) != len(want) {
		t.Fatalf("brownout exchanges %v, want %v", downs, want)
	}
	for i := range want {
		if downs[i] != want[i] {
			t.Fatalf("brownout exchanges %v, want %v", downs, want)
		}
	}
}

func TestTransportDropsQuery(t *testing.T) {
	inner := &fakeInner{}
	var advanced time.Duration
	tr := WrapTransport(inner, NewInjector(Config{Loss: 1, Timeout: 300 * time.Millisecond}),
		func(d time.Duration) { advanced += d })
	_, _, err := tr.Exchange(query(1), false)
	if !errors.Is(err, ErrTimeout) || !errors.Is(err, ErrInjected) {
		t.Fatalf("err = %v, want injected timeout", err)
	}
	if inner.calls != 0 {
		t.Error("lost query still reached the server")
	}
	if advanced != 300*time.Millisecond {
		t.Errorf("advanced %v, want the 300ms timeout", advanced)
	}
	st := tr.inj.Stats()
	if st.DroppedQueries != 1 || st.Exchanges != 1 {
		t.Errorf("stats = %+v", st)
	}
}

func TestTransportCorruptsResponse(t *testing.T) {
	inner := &fakeInner{}
	tr := WrapTransport(inner, NewInjector(Config{Corrupt: 1}), nil)
	_, _, err := tr.Exchange(query(2), false)
	if !errors.Is(err, ErrCorrupt) {
		t.Fatalf("err = %v", err)
	}
	if inner.calls != 1 {
		t.Error("corrupted exchange must still reach the server")
	}
}

func TestTransportForcesTruncation(t *testing.T) {
	inner := &fakeInner{}
	tr := WrapTransport(inner, NewInjector(Config{Truncate: 1}), nil)
	resp, _, err := tr.Exchange(query(3), false)
	if err != nil {
		t.Fatal(err)
	}
	if !resp.Header.Truncated || len(resp.Answers) != 0 {
		t.Fatalf("resp = %+v", resp)
	}
	// The TCP retry is never force-truncated.
	resp, _, err = tr.Exchange(query(3), true)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Header.Truncated {
		t.Fatal("TCP response truncated")
	}
}

func TestTransportTCPFailure(t *testing.T) {
	inner := &fakeInner{}
	tr := WrapTransport(inner, NewInjector(Config{TCPFail: 1}), nil)
	if _, _, err := tr.Exchange(query(4), true); !errors.Is(err, ErrConnRefused) {
		t.Fatalf("err = %v", err)
	}
	// UDP is unaffected by TCPFail.
	if _, _, err := tr.Exchange(query(4), false); err != nil {
		t.Fatal(err)
	}
}

func TestTransportBrownoutServfail(t *testing.T) {
	inner := &fakeInner{}
	tr := WrapTransport(inner, NewInjector(Config{
		Brownout: Brownout{Every: 1, Len: 1, Mode: BrownoutServfail},
	}), nil)
	// Every=1 browns out every exchange from the second onward.
	if _, _, err := tr.Exchange(query(5), false); err != nil {
		t.Fatal(err)
	}
	resp, _, err := tr.Exchange(query(6), false)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Header.RCode != dnswire.RCodeServFail || resp.Header.ID != 6 {
		t.Fatalf("resp header = %+v", resp.Header)
	}
	if inner.calls != 1 {
		t.Errorf("inner calls = %d, want 1 (servfail never reaches the engine)", inner.calls)
	}
}

func TestStatsTotal(t *testing.T) {
	a := Stats{DroppedQueries: 2, Corrupted: 1, DroppedResponses: 3, BrownoutServfails: 4, Exchanges: 15}
	if got := a.Total(); got != 10 {
		t.Fatalf("Total = %d, want 10", got)
	}
}
