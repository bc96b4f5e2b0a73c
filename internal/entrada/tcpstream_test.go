package entrada

import (
	"bytes"
	"math/rand"
	"net/netip"
	"testing"
	"testing/quick"
	"time"

	"dnscentral/internal/astrie"
	"dnscentral/internal/dnswire"
	"dnscentral/internal/layers"
)

func TestTCPStreamInOrder(t *testing.T) {
	var s tcpStream
	s.syncTo(100)
	if !s.push(100, []byte("ab")) || !s.push(102, []byte("cd")) {
		t.Fatal("in-order pushes reported no progress")
	}
	if string(s.buf) != "abcd" {
		t.Fatalf("buf = %q", s.buf)
	}
}

func TestTCPStreamOutOfOrder(t *testing.T) {
	var s tcpStream
	s.syncTo(10)
	if s.push(14, []byte("EF")) {
		t.Fatal("future segment reported progress")
	}
	if !s.push(10, []byte("ABCD")) {
		t.Fatal("filling segment reported no progress")
	}
	if string(s.buf) != "ABCDEF" {
		t.Fatalf("buf = %q", s.buf)
	}
}

func TestTCPStreamRetransmission(t *testing.T) {
	var s tcpStream
	s.syncTo(0)
	s.push(0, []byte("hello"))
	if s.push(0, []byte("hello")) { // exact dup
		t.Fatal("duplicate reported progress")
	}
	// Overlapping retransmission carrying new bytes.
	if !s.push(3, []byte("loWORLD")) {
		t.Fatal("overlap with new data reported no progress")
	}
	if string(s.buf) != "helloWORLD" {
		t.Fatalf("buf = %q", s.buf)
	}
}

func TestTCPStreamSequenceWraparound(t *testing.T) {
	var s tcpStream
	start := uint32(0xFFFFFFFE)
	s.syncTo(start)
	s.push(start, []byte("ab")) // crosses the 2^32 boundary
	if !s.push(0, []byte("cd")) {
		t.Fatal("post-wrap segment reported no progress")
	}
	if string(s.buf) != "abcd" {
		t.Fatalf("buf = %q", s.buf)
	}
}

func TestTCPStreamMidStreamAttach(t *testing.T) {
	var s tcpStream // no syncTo: capture started mid-connection
	if !s.push(5000, []byte("xyz")) {
		t.Fatal("mid-stream attach failed")
	}
	if string(s.buf) != "xyz" {
		t.Fatalf("buf = %q", s.buf)
	}
}

// TestPropertyTCPStreamAnyOrder: any permutation of contiguous segments
// reassembles to the same byte string.
func TestPropertyTCPStreamAnyOrder(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		// Build a message of 3-10 segments.
		var full []byte
		type seg struct {
			seq  uint32
			data []byte
		}
		var segs []seg
		seq := r.Uint32()
		n := 3 + r.Intn(8)
		for i := 0; i < n; i++ {
			l := 1 + r.Intn(40)
			data := make([]byte, l)
			r.Read(data)
			segs = append(segs, seg{seq, data})
			full = append(full, data...)
			seq += uint32(l)
		}
		var s tcpStream
		s.syncTo(segs[0].seq)
		// Shuffle and push, with occasional duplicates.
		order := r.Perm(len(segs))
		for _, i := range order {
			s.push(segs[i].seq, segs[i].data)
			if r.Intn(3) == 0 {
				s.push(segs[i].seq, segs[i].data) // retransmit
			}
		}
		return bytes.Equal(s.buf, full)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300, Rand: rand.New(rand.NewSource(1))}); err != nil {
		t.Error(err)
	}
}

// TestTCPStreamCountsPendingDrops fills the out-of-order buffer and checks
// the overflow is counted instead of silently discarded.
func TestTCPStreamCountsPendingDrops(t *testing.T) {
	var dropped uint64
	s := tcpStream{drops: &dropped}
	s.syncTo(0)
	// Non-contiguous future segments: seq 2, 4, 6, ... never fill the gap
	// at 0, so every one of them parks until the buffer is full.
	for i := 0; i < maxPendingSegments+6; i++ {
		s.push(uint32(2+2*i), []byte{byte(i)})
	}
	if dropped != 6 {
		t.Fatalf("dropped = %d, want 6", dropped)
	}
	// Retransmitting an already-parked segment must not count as a drop.
	s.push(2, []byte{0})
	if dropped != 6 {
		t.Fatalf("retransmit of parked segment counted as drop: %d", dropped)
	}
}

// TestAnalyzerCountsDroppedSegments drives the drop path end to end: the
// counter must land in Aggregates, survive Merge, and appear in the report.
func TestAnalyzerCountsDroppedSegments(t *testing.T) {
	reg := astrie.NewRegistry(2)
	client, _ := reg.ResolverAddr(15169, false, false, 1)
	src := netip.AddrPortFrom(client, 40001)
	dst := netip.MustParseAddrPort("198.51.10.1:53")

	an := NewAnalyzer(reg)
	ts := time.Unix(0, 0)
	send := func(seq uint32, payload []byte, flags uint8) {
		frame, err := layers.BuildTCP(src, dst, layers.TCPMeta{Seq: seq, Flags: flags}, payload)
		if err != nil {
			t.Fatal(err)
		}
		an.HandlePacket(ts, frame)
		ts = ts.Add(time.Millisecond)
	}
	const iss = 100
	send(iss, nil, layers.TCPFlagSYN)
	// Future segments with gaps; with the first post-SYN byte missing none
	// of them can drain, so the buffer fills and the rest are dropped.
	for i := 0; i < maxPendingSegments+4; i++ {
		send(iss+2+uint32(2*i), []byte{byte(i)}, layers.TCPFlagACK)
	}
	ag := an.Finish()
	if ag.DroppedSegments != 4 {
		t.Fatalf("DroppedSegments = %d, want 4", ag.DroppedSegments)
	}

	other := NewAnalyzer(reg).Finish()
	other.Merge(ag)
	if other.DroppedSegments != 4 {
		t.Fatalf("merged DroppedSegments = %d, want 4", other.DroppedSegments)
	}
	if rep := BuildReport(ag, reg); rep.DroppedSegments != 4 {
		t.Fatalf("report DroppedSegments = %d, want 4", rep.DroppedSegments)
	}
}

// TestAnalyzerHandlesOutOfOrderTCP rebuilds a TCP exchange with the data
// segments swapped and checks the query is still extracted.
func TestAnalyzerHandlesOutOfOrderTCP(t *testing.T) {
	reg := astrie.NewRegistry(2)
	client, _ := reg.ResolverAddr(15169, false, false, 1)
	src := netip.AddrPortFrom(client, 40000)
	dst := netip.MustParseAddrPort("198.51.10.1:53")

	q := dnswire.NewQuery(7, "d1.nl.", dnswire.TypeA)
	qwire, _ := q.Pack()
	framed := append([]byte{byte(len(qwire) >> 8), byte(len(qwire))}, qwire...)
	// Split the framed query into two segments and deliver them swapped.
	cut := len(framed) / 2
	seg1, seg2 := framed[:cut], framed[cut:]
	const iss = 5000

	an := NewAnalyzer(reg)
	ts := time.Unix(0, 0)
	send := func(seq uint32, payload []byte, flags uint8) {
		frame, err := layers.BuildTCP(src, dst, layers.TCPMeta{Seq: seq, Flags: flags}, payload)
		if err != nil {
			t.Fatal(err)
		}
		an.HandlePacket(ts, frame)
		ts = ts.Add(time.Millisecond)
	}
	send(iss, nil, layers.TCPFlagSYN)
	// Data arrives out of order.
	send(iss+1+uint32(cut), seg2, layers.TCPFlagACK|layers.TCPFlagPSH)
	send(iss+1, seg1, layers.TCPFlagACK|layers.TCPFlagPSH)

	ag := an.Finish()
	google := ag.Provider(astrie.ProviderGoogle)
	if google.Queries != 1 || google.TCP != 1 {
		t.Fatalf("out-of-order TCP query not reassembled: %+v", google)
	}
	if google.ByType[dnswire.TypeA] != 1 {
		t.Fatal("wrong query type extracted")
	}
}
