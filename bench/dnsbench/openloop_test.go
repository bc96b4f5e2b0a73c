package main

import (
	"math/rand"
	"net"
	"testing"
	"time"
)

// stallingServer answers every query (QR set, question echoed) but stops
// reading for stall once, beginning after the first query seen at or after
// stallAt. Queries that arrive meanwhile wait in its socket buffer.
func stallingServer(t *testing.T, stallAt, stall time.Duration) *net.UDPConn {
	t.Helper()
	conn, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		t.Fatal(err)
	}
	// Room for everything sent during the stall.
	_ = conn.SetReadBuffer(4 << 20)
	go func() {
		buf := make([]byte, 2048)
		var first time.Time
		stalled := false
		for {
			n, from, err := conn.ReadFromUDPAddrPort(buf)
			if err != nil {
				return // closed
			}
			if first.IsZero() {
				first = time.Now()
			}
			if !stalled && time.Since(first) >= stallAt {
				stalled = true
				time.Sleep(stall)
			}
			buf[2] |= 0x80
			_, _ = conn.WriteToUDPAddrPort(buf[:n], from)
		}
	}()
	return conn
}

// TestNoCoordinatedOmission: the generator keeps its schedule through a
// server stall, and every query scheduled during the stall carries the
// rest of the stall in its latency. A generator that waited for answers
// would have sent next to nothing meanwhile and reported one slow query.
func TestNoCoordinatedOmission(t *testing.T) {
	const (
		rate  = 2000.0
		dur   = time.Second
		stall = 200 * time.Millisecond
	)
	srv := stallingServer(t, 300*time.Millisecond, stall)
	defer srv.Close()
	conn, err := net.DialUDP("udp", nil, srv.LocalAddr().(*net.UDPAddr))
	if err != nil {
		t.Fatal(err)
	}
	g, err := newLoadGen([]*net.UDPConn{conn}, 5*time.Millisecond, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer g.close()
	gen := func(_ *rand.Rand, buf []byte) ([]byte, int, uint8) {
		pkt, qend := appendQuery(buf, hotName(1), false)
		return pkt, qend, 0
	}
	st := g.run([]segment{{rate: rate, dur: dur}}, gen, nil)[0]

	if want := uint64(rate * dur.Seconds()); st.attempted != want {
		t.Errorf("attempted %d queries, the schedule holds %d", st.attempted, want)
	}
	// What the generator gave up because the test box held it back for
	// over maxLag was never sent; everything sent must be answered.
	if st.lost() != st.unsent || st.wrong != 0 || st.unsent > st.attempted/50 {
		t.Errorf("%d lost (%d of them unsent), %d wrong: the stalled server answers everything in the end", st.lost(), st.unsent, st.wrong)
	}
	// Queries due in the first three quarters of the stall wait at least a
	// quarter of it: rate × 150 ms of them, give or take scheduling noise.
	atLeast := uint32(stall / 4)
	slow := 0
	var longest uint32
	for _, l := range st.lat {
		if l >= atLeast {
			slow++
		}
		longest = max(longest, l)
	}
	if want := int(rate * (stall * 3 / 4).Seconds()); slow < want*9/10 {
		t.Errorf("%d queries waited ≥ %v; %d were scheduled in the first three quarters of the stall", slow, time.Duration(atLeast), want)
	}
	if time.Duration(longest) < stall*9/10 {
		t.Errorf("longest latency %v, want about the whole stall of %v", time.Duration(longest), stall)
	}
	// The rung this would be fails on latency, not on the generator.
	st.backlogStart, st.backlogEnd = 0, 0
	if pass, genBound := rungVerdict(st, rate, 5*time.Millisecond); pass || genBound {
		t.Errorf("rung with a 200 ms stall: pass=%v generatorBound=%v, want a plain failure", pass, genBound)
	}
}

// TestGeneratorBoundRung: a rung whose queries left late says nothing about
// the server and cannot pass, however well it was answered.
func TestGeneratorBoundRung(t *testing.T) {
	good := segStats{attempted: 1000, within: 1000}
	if pass, gb := rungVerdict(good, 1000, time.Millisecond); !pass || gb {
		t.Errorf("clean rung: pass=%v generatorBound=%v", pass, gb)
	}
	late := segStats{attempted: 1000, within: 1000, late1ms: 51}
	if pass, gb := rungVerdict(late, 1000, time.Millisecond); pass || !gb {
		t.Errorf("rung with 5.1 %% of queries over 1 ms late: pass=%v generatorBound=%v", pass, gb)
	}
	growing := segStats{attempted: 1000, within: 995, backlogEnd: 5}
	if pass, _ := rungVerdict(growing, 1000, time.Millisecond); pass {
		t.Error("rung whose backlog grew by more than rate × limit passed")
	}
}

// TestLadderShape: the rungs span the ladder in steps no wider than asked.
func TestLadderShape(t *testing.T) {
	rungs := ladder(1000, 4000, 1.25, time.Millisecond)
	if rungs[0].rate != 1000 || rungs[len(rungs)-1].rate < 3999 || rungs[len(rungs)-1].rate > 4001 {
		t.Fatalf("ladder runs from %.0f to %.0f, want 1000 to 4000", rungs[0].rate, rungs[len(rungs)-1].rate)
	}
	for i := 1; i < len(rungs); i++ {
		if step := rungs[i].rate / rungs[i-1].rate; step > 1.25+1e-9 || step <= 1 {
			t.Errorf("rung %d is %.3f× the one before, want at most 1.25×", i, step)
		}
	}
}
