package entrada

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"net/netip"
	"testing"

	"dnscentral/internal/cloudmodel"
	"dnscentral/internal/layers"
	"dnscentral/internal/pcapio"
	"dnscentral/internal/workload"
)

// checkpointCapture builds the deterministic capture the checkpoint
// tests share.
func checkpointCapture(t *testing.T) ([]byte, *workload.Generator) {
	t.Helper()
	g, err := workload.NewGenerator(workload.Config{
		Vantage: cloudmodel.VantageNL, Week: cloudmodel.W2020,
		TotalQueries: 4000, Seed: 42, ResolverScale: 0.002,
	})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	w := pcapio.NewWriter(&buf)
	if _, err := g.Run(w); err != nil {
		t.Fatal(err)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes(), g
}

// readAll decodes every packet of a capture.
func readAll(t *testing.T, blob []byte) []pcapio.Packet {
	t.Helper()
	r, err := pcapio.NewReader(bytes.NewReader(blob))
	if err != nil {
		t.Fatal(err)
	}
	var pkts []pcapio.Packet
	err = pcapio.ForEachPacket(r, func(p pcapio.Packet) error {
		pkts = append(pkts, pcapio.Packet{
			Timestamp: p.Timestamp,
			Data:      append([]byte(nil), p.Data...),
			OrigLen:   p.OrigLen,
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return pkts
}

// TestCheckpointResumeExact is the tentpole invariant at unit level:
// serialize mid-run at an arbitrary packet boundary — pending joins and
// half-open TCP connections in flight — restore into a fresh analyzer,
// feed it the rest, and the final report must be byte-identical to an
// uninterrupted run.
func TestCheckpointResumeExact(t *testing.T) {
	blob, g := checkpointCapture(t)
	reg := g.Registry()
	origin := WithZoneOrigin(g.Zone().Origin)
	pkts := readAll(t, blob)

	oneShot := NewAnalyzer(reg, origin)
	for _, p := range pkts {
		oneShot.HandlePacket(p.Timestamp, p.Data)
	}
	want := reportJSON(t, oneShot.Finish(), reg)

	// Split points deliberately not aligned to query/response pairs.
	for _, cut := range []int{0, 1, len(pkts) / 3, len(pkts) / 2, len(pkts) - 1, len(pkts)} {
		first := NewAnalyzer(reg, origin)
		for _, p := range pkts[:cut] {
			first.HandlePacket(p.Timestamp, p.Data)
		}
		state, err := first.MarshalState()
		if err != nil {
			t.Fatalf("cut=%d: marshal: %v", cut, err)
		}
		restored, err := RestoreAnalyzer(reg, state)
		if err != nil {
			t.Fatalf("cut=%d: restore: %v", cut, err)
		}
		for _, p := range pkts[cut:] {
			restored.HandlePacket(p.Timestamp, p.Data)
		}
		got := reportJSON(t, restored.Finish(), reg)
		if !bytes.Equal(got, want) {
			t.Fatalf("cut=%d: resumed report differs from uninterrupted run", cut)
		}
	}
}

// TestCheckpointSplitAtFirstSightOfSource cuts the capture right after
// the first query of a source whose response comes later: the query
// crosses the checkpoint as a pending join, and the source table — which
// is never checkpointed — must be rebuilt so that the source still lands
// in the resolver and AS sets exactly once. The report must match the
// uninterrupted run byte for byte.
func TestCheckpointSplitAtFirstSightOfSource(t *testing.T) {
	blob, g := checkpointCapture(t)
	reg := g.Registry()
	origin := WithZoneOrigin(g.Zone().Origin)
	pkts := readAll(t, blob)

	oneShot := NewAnalyzer(reg, origin)
	for _, p := range pkts {
		oneShot.HandlePacket(p.Timestamp, p.Data)
	}
	want := reportJSON(t, oneShot.Finish(), reg)

	// Flows of every packet; then the first-sight queries whose response
	// follows, spread over the capture.
	parser := layers.NewParser()
	flows := make([]layers.Flow, len(pkts))
	for i, p := range pkts {
		if fl, err := parser.Decode(p.Data); err == nil {
			flows[i] = fl
		}
	}
	seen := make(map[netip.Addr]bool)
	var cuts []int
	for i, fl := range flows {
		if fl.Proto != layers.IPProtoUDP || fl.DstPort != 53 || seen[fl.Src] {
			continue
		}
		seen[fl.Src] = true
		for _, later := range flows[i+1:] {
			if later.SrcPort == 53 && later.Dst == fl.Src && later.DstPort == fl.SrcPort {
				cuts = append(cuts, i+1)
				break
			}
		}
	}
	if len(cuts) < 10 {
		t.Fatalf("only %d first-sight queries with a later response", len(cuts))
	}
	for k := 0; k < 10; k++ {
		cut := cuts[k*(len(cuts)-1)/9]
		first := NewAnalyzer(reg, origin)
		for _, p := range pkts[:cut] {
			first.HandlePacket(p.Timestamp, p.Data)
		}
		state, err := first.MarshalState()
		if err != nil {
			t.Fatalf("cut=%d: marshal: %v", cut, err)
		}
		restored, err := RestoreAnalyzer(reg, state)
		if err != nil {
			t.Fatalf("cut=%d: restore: %v", cut, err)
		}
		for _, p := range pkts[cut:] {
			restored.HandlePacket(p.Timestamp, p.Data)
		}
		if got := reportJSON(t, restored.Finish(), reg); !bytes.Equal(got, want) {
			t.Fatalf("cut=%d (after the first query from %s): resumed report differs from uninterrupted run", cut, flows[cut-1].Src)
		}
	}
}

// TestCheckpointGolden pins the serialization format: the same state
// must always marshal to the same bytes (determinism is what makes the
// resume guarantee testable), a restore→re-marshal round trip must be
// the identity, and the SHA-256 of the encoding over a fixed workload is
// pinned so format drift is an explicit, reviewed change (bump
// CheckpointVersion when it is intentional).
func TestCheckpointGolden(t *testing.T) {
	blob, g := checkpointCapture(t)
	reg := g.Registry()
	pkts := readAll(t, blob)

	an := NewAnalyzer(reg, WithZoneOrigin(g.Zone().Origin))
	for _, p := range pkts[:len(pkts)/2] {
		an.HandlePacket(p.Timestamp, p.Data)
	}
	state, err := an.MarshalState()
	if err != nil {
		t.Fatal(err)
	}
	again, err := an.MarshalState()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(state, again) {
		t.Fatal("MarshalState is not deterministic: two calls on the same state differ")
	}

	restored, err := RestoreAnalyzer(reg, state)
	if err != nil {
		t.Fatal(err)
	}
	restate, err := restored.MarshalState()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(restate, state) {
		t.Fatal("restore→marshal is not the identity")
	}

	sum := sha256.Sum256(state)
	const want = "ce4dbb6f96cef56ee52b0a5565cea984bba53e94ead619be158e1366df7f02fc"
	if got := hex.EncodeToString(sum[:]); got != want {
		t.Fatalf("checkpoint encoding SHA-256 = %s, want %s\n(format drift: if intentional, bump CheckpointVersion and re-pin)", got, want)
	}
}

// TestCheckpointLegacyEagerField: checkpoints once recorded the analyzer's
// decoder choice as "eager":true, and the aggregates once carried
// per-RCODE response counts ("rcodes") and a UDP response count
// ("udp_responses") that no report read. Those fields are gone, and a
// checkpoint that still carries them must restore to the same analyzer as
// one without them: the same state bytes on re-marshal and the same final
// report.
func TestCheckpointLegacyEagerField(t *testing.T) {
	blob, g := checkpointCapture(t)
	reg := g.Registry()
	pkts := readAll(t, blob)
	cut := len(pkts) / 2

	an := NewAnalyzer(reg, WithZoneOrigin(g.Zone().Origin))
	for _, p := range pkts[:cut] {
		an.HandlePacket(p.Timestamp, p.Data)
	}
	state, err := an.MarshalState()
	if err != nil {
		t.Fatal(err)
	}
	prefix := []byte(`{"version":1,`)
	if !bytes.HasPrefix(state, prefix) {
		t.Fatalf("checkpoint does not start with %s: %.40s", prefix, state)
	}
	legacy := append([]byte(`{"version":1,"eager":true,`), state[len(prefix):]...)
	// The fields sat just before "tcp_responses", with these values at
	// this cut, so the row is byte for byte what the older build wrote.
	tcp := []byte(`"tcp_responses":`)
	if bytes.Count(state, tcp) != 1 {
		t.Fatalf("checkpoint has %d %s keys, want 1", bytes.Count(state, tcp), tcp)
	}
	rcodes := bytes.Replace(state, tcp,
		[]byte(`"rcodes":[{"k":0,"n":1800},{"k":3,"n":254}],"udp_responses":1996,"tcp_responses":`), 1)

	var reports [][]byte
	for _, ck := range [][]byte{state, legacy, rcodes} {
		restored, err := RestoreAnalyzer(reg, ck)
		if err != nil {
			t.Fatal(err)
		}
		restate, err := restored.MarshalState()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(restate, state) {
			t.Fatalf("restoring %.40s… does not re-marshal to the current state", ck)
		}
		for _, p := range pkts[cut:] {
			restored.HandlePacket(p.Timestamp, p.Data)
		}
		reports = append(reports, reportJSON(t, restored.Finish(), reg))
	}
	if !bytes.Equal(reports[0], reports[1]) {
		t.Fatal(`checkpoint with "eager":true gives a different report`)
	}
	if !bytes.Equal(reports[0], reports[2]) {
		t.Fatal(`checkpoint with "rcodes" and "udp_responses" gives a different report`)
	}
}

// TestCheckpointVersionMismatch: a checkpoint from a different format
// version must be rejected, not misinterpreted.
func TestCheckpointVersionMismatch(t *testing.T) {
	if _, err := RestoreAnalyzer(nil, []byte(`{"version":99,"agg":{"total":0,"valid":0}}`)); err == nil {
		t.Fatal("future-version checkpoint accepted")
	}
	if _, err := RestoreAnalyzer(nil, []byte(`not json`)); err == nil {
		t.Fatal("garbage checkpoint accepted")
	}
}

// TestQueryCountsSnapshot: QueryCounts must be non-destructive and
// reflect cumulative finalized queries, so consecutive snapshots give
// valid window deltas.
func TestQueryCountsSnapshot(t *testing.T) {
	blob, g := checkpointCapture(t)
	reg := g.Registry()
	pkts := readAll(t, blob)

	an := NewAnalyzer(reg, WithZoneOrigin(g.Zone().Origin))
	var prev uint64
	for i, p := range pkts {
		an.HandlePacket(p.Timestamp, p.Data)
		if i%500 == 0 {
			qc := an.QueryCounts()
			if qc.Total < prev {
				t.Fatalf("packet %d: Total went backwards: %d -> %d", i, prev, qc.Total)
			}
			var byProv uint64
			for _, n := range qc.ByProvider {
				byProv += n
			}
			if byProv != qc.Total {
				t.Fatalf("packet %d: provider sum %d != total %d", i, byProv, qc.Total)
			}
			prev = qc.Total
		}
	}
	mid := an.QueryCounts()
	ag := an.Finish()
	if ag.Total < mid.Total {
		t.Fatalf("Finish() total %d below last snapshot %d", ag.Total, mid.Total)
	}
}

// TestCheckpointRepeatedMarshal: MarshalState keeps the sorted resolver
// lists of one call for the next and reuses those of sets that have not
// grown. An analyzer that marshals at every stretch of a capture — as a
// shard does at every checkpoint — must therefore produce, each time,
// exactly the bytes an analyzer marshalling for the first time produces.
func TestCheckpointRepeatedMarshal(t *testing.T) {
	blob, g := checkpointCapture(t)
	reg := g.Registry()
	origin := WithZoneOrigin(g.Zone().Origin)
	pkts := readAll(t, blob)

	often, once := NewAnalyzer(reg, origin), NewAnalyzer(reg, origin)
	reused := false
	for i, p := range pkts {
		often.HandlePacket(p.Timestamp, p.Data)
		once.HandlePacket(p.Timestamp, p.Data)
		// Unevenly spaced, and twice in a row at the end of each stretch: a
		// marshal with no packet in between finds every set unchanged.
		if i%97 != 0 && i%97 != 1 && i != len(pkts)-1 {
			continue
		}
		before := len(often.allResolvers.sorted)
		got, err := often.MarshalState()
		if err != nil {
			t.Fatal(err)
		}
		if before > 0 && before == len(often.agg.AllResolvers) {
			reused = true
		}
		fresh, err := RestoreAnalyzer(reg, got)
		if err != nil {
			t.Fatal(err)
		}
		want, err := fresh.MarshalState()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("packet %d: a repeated marshal differs from a first marshal of the same state", i)
		}
	}
	if !reused {
		t.Fatal("no marshal ever found the resolver set unchanged: the reuse path went untested")
	}
	a, err := often.MarshalState()
	if err != nil {
		t.Fatal(err)
	}
	b, err := once.MarshalState()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Fatal("an analyzer that marshalled all along ends in a different state encoding than one that never did")
	}
}
