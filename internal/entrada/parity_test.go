package entrada

import (
	"bytes"
	"testing"

	"dnscentral/internal/astrie"
	"dnscentral/internal/cloudmodel"
	"dnscentral/internal/dnswire"
	"dnscentral/internal/layers"
	"dnscentral/internal/pcapio"
	"dnscentral/internal/workload"
)

// referenceDecode is the reference the analyzer's decoder is held to: the
// full dnswire.Unpack parse, reduced to the msgMeta fields the analyzer
// consumes. It uses the analyzer only for its zone origin, through the
// same Q-min heuristic decode applies.
func referenceDecode(a *Analyzer, payload []byte) (msgMeta, bool) {
	msg, err := dnswire.Unpack(payload)
	if err != nil {
		return msgMeta{}, false
	}
	m := msgMeta{
		id:        msg.Header.ID,
		response:  msg.Header.Response,
		truncated: msg.Header.Truncated,
		rcode:     msg.Header.RCode,
	}
	q := msg.Question()
	m.qtype = q.Type
	if a.origin != "" && q.Type == dnswire.TypeNS {
		m.minimized = a.looksMinimized(q)
	}
	if msg.Edns != nil {
		m.udpSize = int(msg.Edns.UDPSize)
	}
	return m, true
}

// checkDecode requires decode and referenceDecode to agree on ok and on
// every msgMeta field.
func checkDecode(t testing.TB, a *Analyzer, payload []byte) {
	t.Helper()
	got, gotOK := a.decode(payload)
	want, wantOK := referenceDecode(a, payload)
	if gotOK != wantOK || got != want {
		t.Fatalf("origin %q, payload %x:\ndecode    = %+v ok=%v\nreference = %+v ok=%v",
			a.origin, payload, got, gotOK, want, wantOK)
	}
}

// parityCapture is one generated capture the decoder differential runs
// over: every DNS message it carries and the zone it was served from.
type parityCapture struct {
	payloads [][]byte
	origin   string
}

// parityCaptures generates the NL w2020 and NZ w2018 captures and splits
// them into DNS messages: UDP payloads whole, TCP payloads at their
// two-byte length prefixes (the generator puts one message per segment).
func parityCaptures(t testing.TB) []parityCapture {
	t.Helper()
	var out []parityCapture
	for _, tc := range []struct {
		vantage cloudmodel.Vantage
		week    cloudmodel.Week
		seed    int64
	}{
		{cloudmodel.VantageNL, cloudmodel.W2020, 21},
		{cloudmodel.VantageNZ, cloudmodel.W2018, 4},
	} {
		g, err := workload.NewGenerator(workload.Config{
			Vantage: tc.vantage, Week: tc.week,
			TotalQueries: 6000, Seed: tc.seed, ResolverScale: 0.002,
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
		r, err := pcapio.NewReader(&buf)
		if err != nil {
			t.Fatal(err)
		}
		pc := parityCapture{origin: g.Zone().Origin}
		p := layers.NewParser()
		err = pcapio.ForEachPacket(r, func(pkt pcapio.Packet) error {
			flow, err := p.Decode(pkt.Data)
			if err != nil {
				return err
			}
			rest := p.Payload
			if flow.Proto == layers.IPProtoUDP {
				pc.payloads = append(pc.payloads, append([]byte(nil), rest...))
				return nil
			}
			for len(rest) >= 2 {
				n := int(rest[0])<<8 | int(rest[1])
				if len(rest) < 2+n {
					t.Fatalf("seed %d: TCP segment splits a message", tc.seed)
				}
				pc.payloads = append(pc.payloads, append([]byte(nil), rest[2:2+n]...))
				rest = rest[2+n:]
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, pc)
	}
	return out
}

// malformedPayloads are the reject half of the decoder contract, with the
// valid query and response they are derived from.
func malformedPayloads(t testing.TB) [][]byte {
	t.Helper()
	query, err := dnswire.NewQuery(7, "ok.example.nl.", dnswire.TypeA).Pack()
	if err != nil {
		t.Fatal(err)
	}
	resp, err := dnswire.NewQuery(7, "ok.example.nl.", dnswire.TypeA).Reply().Pack()
	if err != nil {
		t.Fatal(err)
	}
	return [][]byte{
		query,
		resp,
		{},                                       // empty
		{1, 2, 3},                                // short header
		append(append([]byte{}, query...), 0xFF), // trailing byte
		bytes.Repeat([]byte{0xFF}, 40),           // count-field garbage
	}
}

// TestDecodeMatchesReference is the contract behind the zero-allocation
// decoder: over every DNS message of two generated captures — queries,
// responses, TCP and UDP, EDNS and Q-min NS shapes — the View walk must
// produce exactly the msgMeta the full Unpack parse reduces to, with and
// without the capture's zone origin.
func TestDecodeMatchesReference(t *testing.T) {
	reg := astrie.NewRegistry(2)
	for _, pc := range parityCaptures(t) {
		if len(pc.payloads) == 0 {
			t.Fatalf("origin %q: capture carried no DNS messages", pc.origin)
		}
		for _, an := range []*Analyzer{NewAnalyzer(reg), NewAnalyzer(reg, WithZoneOrigin(pc.origin))} {
			minimized := 0
			for _, p := range pc.payloads {
				checkDecode(t, an, p)
				if m, _ := an.decode(p); m.minimized {
					minimized++
				}
			}
			if an.origin != "" && minimized == 0 {
				t.Errorf("origin %q: no message took the Q-min path", an.origin)
			}
		}
	}
}

// TestDecodeMatchesReferenceMalformed runs the differential over the
// reject rows: an empty payload, a short header, a trailing byte and
// count-field garbage must be rejected by both decoders, the valid query
// and response accepted by both.
func TestDecodeMatchesReferenceMalformed(t *testing.T) {
	an := NewAnalyzer(astrie.NewRegistry(2), WithZoneOrigin("nl"))
	for i, p := range malformedPayloads(t) {
		checkDecode(t, an, p)
		if _, ok := an.decode(p); ok != (i < 2) {
			t.Errorf("row %d: decode ok = %v, want %v", i, ok, i < 2)
		}
	}
}

// FuzzDecodeParity extends TestDecodeMatchesReference to arbitrary
// payloads. zone selects the analyzer's origin: none, or one of the two
// seed captures' zones.
func FuzzDecodeParity(f *testing.F) {
	captures := parityCaptures(f)
	origins := []string{""}
	for ci, pc := range captures {
		origins = append(origins, pc.origin)
		// A spread of each capture's messages, under its own zone and
		// under none.
		for i := 0; i < len(pc.payloads); i += len(pc.payloads)/32 + 1 {
			f.Add(pc.payloads[i], uint8(0))
			f.Add(pc.payloads[i], uint8(ci+1))
		}
	}
	for _, p := range malformedPayloads(f) {
		f.Add(p, uint8(0))
		f.Add(p, uint8(1))
	}
	reg := astrie.NewRegistry(2)
	ans := make([]*Analyzer, len(origins))
	for i, o := range origins {
		if o == "" {
			ans[i] = NewAnalyzer(reg)
		} else {
			ans[i] = NewAnalyzer(reg, WithZoneOrigin(o))
		}
	}
	f.Fuzz(func(t *testing.T, payload []byte, zone uint8) {
		checkDecode(t, ans[int(zone)%len(ans)], payload)
	})
}
