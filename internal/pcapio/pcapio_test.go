package pcapio

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"math/rand"
	"testing"
	"testing/quick"
	"time"
)

func roundTrip(t *testing.T, opts ...WriterOption) {
	t.Helper()
	var buf bytes.Buffer
	w := NewWriter(&buf, opts...)
	base := time.Date(2020, 4, 5, 0, 0, 0, 123456789, time.UTC)
	pkts := [][]byte{
		[]byte("first packet"),
		bytes.Repeat([]byte{0xAB}, 1500),
		{},
		[]byte("last"),
	}
	for i, p := range pkts {
		if err := w.WritePacket(base.Add(time.Duration(i)*time.Second), p); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}

	r, err := NewReader(&buf)
	if err != nil {
		t.Fatal(err)
	}
	for i, want := range pkts {
		got, err := r.ReadPacket()
		if err != nil {
			t.Fatalf("packet %d: %v", i, err)
		}
		if !bytes.Equal(got.Data, want) {
			t.Errorf("packet %d data mismatch: %d vs %d bytes", i, len(got.Data), len(want))
		}
		if got.OrigLen != len(want) {
			t.Errorf("packet %d origlen = %d", i, got.OrigLen)
		}
		wantTS := base.Add(time.Duration(i) * time.Second)
		diff := got.Timestamp.Sub(wantTS)
		if diff < 0 {
			diff = -diff
		}
		maxSkew := time.Microsecond
		if r.nanos {
			maxSkew = 0
		}
		if diff > maxSkew {
			t.Errorf("packet %d timestamp skew %v", i, diff)
		}
	}
	if _, err := r.ReadPacket(); err != io.EOF {
		t.Errorf("expected EOF, got %v", err)
	}
}

func TestRoundTripMicroseconds(t *testing.T) { roundTrip(t) }

func TestRoundTripNanoseconds(t *testing.T) { roundTrip(t, WithNanosecondResolution()) }

func TestBigEndianFile(t *testing.T) {
	// Hand-craft a big-endian microsecond file with one packet.
	var buf bytes.Buffer
	hdr := make([]byte, 24)
	binary.BigEndian.PutUint32(hdr[0:], MagicMicroseconds)
	binary.BigEndian.PutUint16(hdr[4:], 2)
	binary.BigEndian.PutUint16(hdr[6:], 4)
	binary.BigEndian.PutUint32(hdr[16:], 65535)
	binary.BigEndian.PutUint32(hdr[20:], LinkTypeEthernet)
	buf.Write(hdr)
	rec := make([]byte, 16)
	binary.BigEndian.PutUint32(rec[0:], 1586044800) // 2020-04-05
	binary.BigEndian.PutUint32(rec[4:], 42)
	binary.BigEndian.PutUint32(rec[8:], 3)
	binary.BigEndian.PutUint32(rec[12:], 3)
	buf.Write(rec)
	buf.Write([]byte{1, 2, 3})

	r, err := NewReader(&buf)
	if err != nil {
		t.Fatal(err)
	}
	pkt, err := r.ReadPacket()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(pkt.Data, []byte{1, 2, 3}) {
		t.Errorf("data = %v", pkt.Data)
	}
	if pkt.Timestamp.Unix() != 1586044800 || pkt.Timestamp.Nanosecond() != 42000 {
		t.Errorf("timestamp = %v", pkt.Timestamp)
	}
}

func TestRejectBadMagic(t *testing.T) {
	if _, err := NewReader(bytes.NewReader(make([]byte, 24))); !errors.Is(err, ErrBadMagic) {
		t.Errorf("err = %v", err)
	}
}

func TestRejectBadLinkType(t *testing.T) {
	hdr := make([]byte, 24)
	binary.LittleEndian.PutUint32(hdr[0:], MagicMicroseconds)
	binary.LittleEndian.PutUint32(hdr[20:], 101) // DLT_RAW
	if _, err := NewReader(bytes.NewReader(hdr)); !errors.Is(err, ErrBadLinkType) {
		t.Errorf("err = %v", err)
	}
}

func TestRejectShortHeader(t *testing.T) {
	if _, err := NewReader(bytes.NewReader([]byte{1, 2, 3})); err == nil {
		t.Error("short header accepted")
	}
}

func TestTruncatedRecord(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	if err := w.WritePacket(time.Now(), []byte("full packet here")); err != nil {
		t.Fatal(err)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	r, err := NewReader(bytes.NewReader(data[:len(data)-4]))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.ReadPacket(); err == nil {
		t.Error("truncated record accepted")
	}
}

// withSnapLen lowers the writer's snapshot length, which no command sets,
// so the truncation path can be driven with small frames.
func withSnapLen(n uint32) WriterOption {
	return func(w *Writer) { w.snapLen = n }
}

func TestSnapLenTruncatesData(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf, withSnapLen(10))
	big := bytes.Repeat([]byte{7}, 100)
	if err := w.WritePacket(time.Unix(0, 0), big); err != nil {
		t.Fatal(err)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	r, err := NewReader(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if r.snapLen != 10 {
		t.Errorf("snaplen = %d", r.snapLen)
	}
	pkt, err := r.ReadPacket()
	if err != nil {
		t.Fatal(err)
	}
	if len(pkt.Data) != 10 || pkt.OrigLen != 100 {
		t.Errorf("cap/orig = %d/%d", len(pkt.Data), pkt.OrigLen)
	}
}

func TestFlushWritesHeaderForEmptyFile(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	r, err := NewReader(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.ReadPacket(); err != io.EOF {
		t.Errorf("empty file: %v", err)
	}
}

func TestForEach(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	for i := 0; i < 10; i++ {
		if err := w.WritePacket(time.Unix(int64(i), 0), []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	r, err := NewReader(&buf)
	if err != nil {
		t.Fatal(err)
	}
	count := 0
	err = ForEachPacket(r, func(p Packet) error {
		if p.Data[0] != byte(count) {
			t.Errorf("packet %d has data %v", count, p.Data)
		}
		count++
		return nil
	})
	if err != nil || count != 10 {
		t.Errorf("ForEach: err=%v count=%d", err, count)
	}
}

func TestForEachPropagatesCallbackError(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	_ = w.WritePacket(time.Unix(0, 0), []byte{1})
	_ = w.Flush()
	r, _ := NewReader(&buf)
	sentinel := errors.New("stop")
	if err := ForEachPacket(r, func(Packet) error { return sentinel }); err != sentinel {
		t.Errorf("err = %v", err)
	}
}

func TestPropertyRoundTrip(t *testing.T) {
	cfg := &quick.Config{MaxCount: 100, Rand: rand.New(rand.NewSource(1))}
	f := func(seed int64, nanos bool) bool {
		r := rand.New(rand.NewSource(seed))
		var opts []WriterOption
		if nanos {
			opts = append(opts, WithNanosecondResolution())
		}
		var buf bytes.Buffer
		w := NewWriter(&buf, opts...)
		n := 1 + r.Intn(20)
		datas := make([][]byte, n)
		for i := range datas {
			datas[i] = make([]byte, r.Intn(200))
			r.Read(datas[i])
			ts := time.Unix(int64(r.Int31()), int64(r.Intn(1e9))).UTC()
			if err := w.WritePacket(ts, datas[i]); err != nil {
				return false
			}
		}
		if err := w.Flush(); err != nil {
			return false
		}
		rd, err := NewReader(&buf)
		if err != nil {
			return false
		}
		for i := range datas {
			pkt, err := rd.ReadPacket()
			if err != nil || !bytes.Equal(pkt.Data, datas[i]) {
				return false
			}
		}
		_, err = rd.ReadPacket()
		return err == io.EOF
	}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

func BenchmarkWritePacket(b *testing.B) {
	w := NewWriter(io.Discard)
	data := make([]byte, 128)
	ts := time.Now()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := w.WritePacket(ts, data); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkReadPacket(b *testing.B) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	data := make([]byte, 128)
	for i := 0; i < 1000; i++ {
		_ = w.WritePacket(time.Unix(0, 0), data)
	}
	_ = w.Flush()
	blob := buf.Bytes()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r, err := NewReader(bytes.NewReader(blob))
		if err != nil {
			b.Fatal(err)
		}
		for {
			if _, err := r.ReadPacket(); err == io.EOF {
				break
			} else if err != nil {
				b.Fatal(err)
			}
		}
	}
}
