package pcapio

import (
	"bytes"
	"testing"
	"time"
)

// TestAppendRecordMatchesWritePacket checks that a file assembled from
// AppendRecord batches is byte-identical to one written packet by packet,
// across resolutions and through snaplen truncation.
func TestAppendRecordMatchesWritePacket(t *testing.T) {
	pkts := [][]byte{
		bytes.Repeat([]byte{0xAA}, 60),
		bytes.Repeat([]byte{0xBB}, 1500),
		bytes.Repeat([]byte{0xCC}, 200), // truncated under snaplen 128
		{},
	}
	base := time.Date(2020, 4, 5, 12, 0, 0, 987654321, time.UTC)

	for _, tc := range []struct {
		name string
		opts []WriterOption
	}{
		{"micro", nil},
		{"nano", []WriterOption{WithNanosecondResolution()}},
		{"snaplen", []WriterOption{withSnapLen(128)}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var perPacket bytes.Buffer
			pw := NewWriter(&perPacket, tc.opts...)
			for i, p := range pkts {
				if err := pw.WritePacket(base.Add(time.Duration(i)*time.Millisecond), p); err != nil {
					t.Fatal(err)
				}
			}
			if err := pw.Flush(); err != nil {
				t.Fatal(err)
			}

			var batched bytes.Buffer
			bw := NewWriter(&batched, tc.opts...)
			var batch []byte
			for i, p := range pkts {
				batch = bw.AppendRecord(batch, base.Add(time.Duration(i)*time.Millisecond), p)
			}
			if err := bw.WriteBatch(batch); err != nil {
				t.Fatal(err)
			}
			if err := bw.Flush(); err != nil {
				t.Fatal(err)
			}

			if !bytes.Equal(perPacket.Bytes(), batched.Bytes()) {
				t.Fatal("batched file differs from per-packet file")
			}
		})
	}
}

// TestWriteBatchRoundTrip reads a batched file back through the Reader.
func TestWriteBatchRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf, WithNanosecondResolution())
	ts := time.Date(2020, 5, 6, 0, 0, 1, 42, time.UTC)
	data := []byte{1, 2, 3, 4, 5, 6, 7, 8}
	if err := w.WriteBatch(w.AppendRecord(nil, ts, data)); err != nil {
		t.Fatal(err)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	r, err := NewReader(&buf)
	if err != nil {
		t.Fatal(err)
	}
	pkt, err := r.ReadPacket()
	if err != nil {
		t.Fatal(err)
	}
	if !pkt.Timestamp.Equal(ts) || !bytes.Equal(pkt.Data, data) || pkt.OrigLen != len(data) {
		t.Fatalf("round trip mismatch: %v %x orig=%d", pkt.Timestamp, pkt.Data, pkt.OrigLen)
	}
}
