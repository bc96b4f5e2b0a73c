package dnswire

import (
	"bytes"
	"net/netip"
	"testing"
)

// PackTruncated is AppendPackTruncated into a fresh buffer: the reference
// the append variant and the truncation tests compare against.
func (m *Message) PackTruncated(limit int) ([]byte, error) {
	return m.AppendPackTruncated(make([]byte, 0, 128), limit)
}

func testResponse() *Message {
	m := NewQuery(0x4242, "www.example.nl", TypeA).WithEdns(1232, true)
	r := m.Reply()
	r.Answers = []RR{{
		Name: "www.example.nl.", Class: ClassIN, TTL: 3600,
		Data: AData{Addr: netip.MustParseAddr("192.0.2.1")},
	}}
	r.Authority = []RR{{
		Name: "example.nl.", Class: ClassIN, TTL: 7200,
		Data: NSData{Host: "ns1.example.nl."},
	}}
	return r
}

// TestAppendPackMidBuffer checks the base-relative compression property:
// packing after unrelated prefix bytes yields the same message bytes as
// packing from scratch, with pointers still relative to the message start.
func TestAppendPackMidBuffer(t *testing.T) {
	m := testResponse()
	want, err := m.Pack()
	if err != nil {
		t.Fatal(err)
	}
	prefix := []byte("twelve bytes")
	b := append([]byte(nil), prefix...)
	b, err = m.AppendPack(b)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(b[len(prefix):], want) {
		t.Fatal("AppendPack mid-buffer differs from Pack from scratch")
	}
	// The packed bytes must stand alone: unpack just the suffix.
	got, err := Unpack(b[len(prefix):])
	if err != nil {
		t.Fatalf("unpacking mid-buffer message: %v", err)
	}
	if got.Answers[0].Name != "www.example.nl." || got.Authority[0].Name != "example.nl." {
		t.Fatalf("compressed names corrupted: %+v", got)
	}
}

// TestAppendPackTruncatedParity checks the append variant against
// PackTruncated across fitting and overflowing limits.
func TestAppendPackTruncatedParity(t *testing.T) {
	m := testResponse()
	for _, limit := range []int{512, 80, 40} {
		want, err := m.PackTruncated(limit)
		if err != nil {
			t.Fatalf("limit %d: %v", limit, err)
		}
		prefix := []byte("prefix")
		b, err := m.AppendPackTruncated(append([]byte(nil), prefix...), limit)
		if err != nil {
			t.Fatalf("limit %d: %v", limit, err)
		}
		if !bytes.Equal(b[len(prefix):], want) {
			t.Fatalf("limit %d: AppendPackTruncated differs from PackTruncated", limit)
		}
		if len(want) > limit {
			t.Fatalf("limit %d: packed %d bytes", limit, len(want))
		}
	}
}

// TestAppendPackNoAlloc checks the emitter's steady-state property:
// repacking into a pre-grown buffer does not allocate. It does not run
// under -race, whose sync.Pool drops the pooled compressor.
func TestAppendPackNoAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector drops sync.Pool items, so allocation counts differ")
	}
	q := NewQuery(7, "www.example.nl", TypeAAAA).WithEdns(1232, false)
	buf := make([]byte, 0, 512)
	avg := testing.AllocsPerRun(100, func() {
		var err error
		buf, err = q.AppendPack(buf[:0])
		if err != nil {
			t.Fatal(err)
		}
	})
	if avg != 0 {
		t.Fatalf("AppendPack allocates %.1f times per message, want 0", avg)
	}
}
