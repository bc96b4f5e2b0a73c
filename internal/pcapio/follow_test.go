package pcapio

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"testing"
	"time"
)

// makePcap returns a classic-pcap capture of n small packets plus the
// byte offset of every record boundary (offsets[i] = end of record i).
func makePcap(t *testing.T, n int) ([]byte, []int64) {
	t.Helper()
	var buf bytes.Buffer
	w := NewWriter(&buf)
	base := time.Date(2020, 4, 5, 0, 0, 0, 0, time.UTC)
	var offsets []int64
	for i := 0; i < n; i++ {
		data := bytes.Repeat([]byte{byte(i)}, 20+i)
		if err := w.WritePacket(base.Add(time.Duration(i)*time.Second), data); err != nil {
			t.Fatal(err)
		}
		if err := w.Flush(); err != nil {
			t.Fatal(err)
		}
		offsets = append(offsets, int64(buf.Len()))
	}
	return buf.Bytes(), offsets
}

// TestTruncatedTailPcap pins the torn-final-record contract for classic
// pcap: a cut anywhere inside the last record yields ErrTruncatedRecord
// carrying the offset of the last complete record, and the packets
// before the tear all decode — instead of the old behavior of aborting
// the whole run on a generic wrapped ErrUnexpectedEOF.
func TestTruncatedTailPcap(t *testing.T) {
	blob, offsets := makePcap(t, 3)
	lastComplete := offsets[1] // end of record 2 of 3

	// Cut points inside record 3: mid header, end of header, mid body,
	// one byte short of complete.
	for _, cut := range []int64{lastComplete + 3, lastComplete + recordHeaderLen, lastComplete + recordHeaderLen + 5, offsets[2] - 1} {
		r, err := NewReader(bytes.NewReader(blob[:cut]))
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 2; i++ {
			if _, err := r.ReadPacket(); err != nil {
				t.Fatalf("cut=%d packet %d: %v", cut, i, err)
			}
		}
		_, err = r.ReadPacket()
		if !errors.Is(err, ErrTruncatedRecord) {
			t.Fatalf("cut=%d: got %v, want ErrTruncatedRecord", cut, err)
		}
		var te *TruncatedError
		if !errors.As(err, &te) {
			t.Fatalf("cut=%d: error %T does not unwrap to *TruncatedError", cut, err)
		}
		if te.Offset != lastComplete {
			t.Fatalf("cut=%d: truncation offset = %d, want %d", cut, te.Offset, lastComplete)
		}
		if r.Offset() != lastComplete {
			t.Fatalf("cut=%d: Reader.Offset() = %d, want %d", cut, r.Offset(), lastComplete)
		}
	}

	// A clean cut exactly at a record boundary is a clean EOF, not a tear.
	r, err := NewReader(bytes.NewReader(blob[:lastComplete]))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if _, err := r.ReadPacket(); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := r.ReadPacket(); err != io.EOF {
		t.Fatalf("boundary cut: got %v, want io.EOF", err)
	}
}

// TestTruncatedTailPcapng is the pcapng counterpart: tears inside the
// final EPB — envelope, body, or trailer — surface as ErrTruncatedRecord
// with the last complete block boundary as the resume offset.
func TestTruncatedTailPcapng(t *testing.T) {
	var buf bytes.Buffer
	w := NewNGWriter(&buf)
	base := time.Date(2020, 4, 5, 0, 0, 0, 0, time.UTC)
	var offsets []int64
	for i := 0; i < 3; i++ {
		if err := w.WritePacket(base.Add(time.Duration(i)*time.Second), bytes.Repeat([]byte{byte(i)}, 30)); err != nil {
			t.Fatal(err)
		}
		if err := w.Flush(); err != nil {
			t.Fatal(err)
		}
		offsets = append(offsets, int64(buf.Len()))
	}
	blob := buf.Bytes()
	lastComplete := offsets[1]

	for _, cut := range []int64{lastComplete + 3, lastComplete + 8, lastComplete + 20, offsets[2] - 2} {
		r, err := NewNGReader(bytes.NewReader(blob[:cut]))
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 2; i++ {
			if _, err := r.ReadPacket(); err != nil {
				t.Fatalf("cut=%d packet %d: %v", cut, i, err)
			}
		}
		_, err = r.ReadPacket()
		if !errors.Is(err, ErrTruncatedRecord) {
			t.Fatalf("cut=%d: got %v, want ErrTruncatedRecord", cut, err)
		}
		var te *TruncatedError
		if !errors.As(err, &te) {
			t.Fatalf("cut=%d: error %T does not unwrap to *TruncatedError", cut, err)
		}
		if te.Offset != lastComplete {
			t.Fatalf("cut=%d: truncation offset = %d, want %d", cut, te.Offset, lastComplete)
		}
		if r.Offset() != lastComplete {
			t.Fatalf("cut=%d: NGReader.Offset() = %d, want %d", cut, r.Offset(), lastComplete)
		}
	}
}

// TestFollowReaderTail drives a live-writer scenario: the file grows in
// deliberately torn chunks while a FollowReader drains it. Every packet
// must come out exactly once, in order, and the idle-exit must end the
// follow with a clean io.EOF once the writer stops.
func TestFollowReaderTail(t *testing.T) {
	blob, _ := makePcap(t, 40)
	path := filepath.Join(t.TempDir(), "live.pcap")

	// Append in 37-byte chunks: record headers are 16 bytes and bodies
	// 20..59, so nearly every chunk boundary tears a record.
	go func() {
		for off := 0; off < len(blob); off += 37 {
			end := off + 37
			if end > len(blob) {
				end = len(blob)
			}
			f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
			if err != nil {
				panic(err)
			}
			if _, err := f.Write(blob[off:end]); err != nil {
				panic(err)
			}
			f.Close()
			time.Sleep(2 * time.Millisecond)
		}
	}()

	fr := NewFollowReader(context.Background(), path,
		FollowPoll(5*time.Millisecond), FollowIdleExit(500*time.Millisecond))
	defer fr.Close()
	var got int
	for {
		pkt, err := fr.ReadPacket()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		if want := bytes.Repeat([]byte{byte(got)}, 20+got); !bytes.Equal(pkt.Data, want) {
			t.Fatalf("packet %d: got %d bytes %v...", got, len(pkt.Data), pkt.Data[:4])
		}
		got++
	}
	if got != 40 {
		t.Fatalf("followed %d packets, want 40", got)
	}
	if fr.Offset() != int64(len(blob)) {
		t.Fatalf("final offset %d, want %d", fr.Offset(), len(blob))
	}
}

// TestFollowReaderResumeAt pins the checkpoint-resume contract: a new
// reader given the committed offset of packet k delivers exactly the
// packets after k.
func TestFollowReaderResumeAt(t *testing.T) {
	blob, offsets := makePcap(t, 10)
	path := filepath.Join(t.TempDir(), "resume.pcap")
	if err := os.WriteFile(path, blob, 0o644); err != nil {
		t.Fatal(err)
	}

	fr := NewFollowReader(context.Background(), path,
		FollowPoll(time.Millisecond), FollowIdleExit(50*time.Millisecond),
		FollowResumeAt(offsets[6])) // packets 0..6 already processed
	defer fr.Close()
	var got []byte
	for {
		pkt, err := fr.ReadPacket()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, pkt.Data[0])
	}
	if want := []byte{7, 8, 9}; !bytes.Equal(got, want) {
		t.Fatalf("resumed packets %v, want %v", got, want)
	}
}

// TestFollowReaderRotation replaces the followed file with a fresh
// capture mid-follow; the reader must notice the new inode and deliver
// the new file's packets from its beginning.
func TestFollowReaderRotation(t *testing.T) {
	first, _ := makePcap(t, 5)
	dir := t.TempDir()
	path := filepath.Join(dir, "rot.pcap")
	if err := os.WriteFile(path, first, 0o644); err != nil {
		t.Fatal(err)
	}

	fr := NewFollowReader(context.Background(), path,
		FollowPoll(time.Millisecond), FollowIdleExit(300*time.Millisecond))
	defer fr.Close()

	for i := 0; i < 5; i++ {
		if _, err := fr.ReadPacket(); err != nil {
			t.Fatalf("pre-rotation packet %d: %v", i, err)
		}
	}

	// Rotate: write the replacement beside it and rename over the path.
	second, _ := makePcap(t, 3)
	next := filepath.Join(dir, "rot.pcap.new")
	if err := os.WriteFile(next, second, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.Rename(next, path); err != nil {
		t.Fatal(err)
	}

	var got int
	for {
		_, err := fr.ReadPacket()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		got++
	}
	if got != 3 {
		t.Fatalf("post-rotation packets = %d, want 3", got)
	}
	if fr.Rotations() != 1 {
		t.Fatalf("Rotations() = %d, want 1", fr.Rotations())
	}
}

// TestFollowReaderCancel pins prompt shutdown: a ReadPacket blocked on a
// quiet file must return the context's error as soon as it is cancelled,
// not after the next packet arrives.
func TestFollowReaderCancel(t *testing.T) {
	blob, _ := makePcap(t, 1)
	path := filepath.Join(t.TempDir(), "quiet.pcap")
	if err := os.WriteFile(path, blob, 0o644); err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	fr := NewFollowReader(ctx, path, FollowPoll(5*time.Millisecond))
	defer fr.Close()
	if _, err := fr.ReadPacket(); err != nil {
		t.Fatal(err)
	}

	done := make(chan error, 1)
	go func() {
		_, err := fr.ReadPacket() // blocks: no more data, no idle-exit
		done <- err
	}()
	time.Sleep(20 * time.Millisecond)
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("got %v, want context.Canceled", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("cancelled ReadPacket did not return promptly")
	}
}

// pollOnly makes a reader poll even where it could watch the file, so a
// test covers the fallback path on every platform.
func pollOnly(fr *FollowReader) *FollowReader {
	if fr.watch != nil {
		fr.watch.close()
		fr.watch = nil
	}
	return fr
}

// TestFollowLongPollEnds pins what ends a wait other than a change to
// the file. With an hour-long poll, -idle-exit still fires at its
// deadline, and cancelling the context still ends a blocked ReadPacket,
// both within 2 s: on a quiet file and on one that never appears, with
// the change watcher and without it.
func TestFollowLongPollEnds(t *testing.T) {
	blob, _ := makePcap(t, 1)
	dir := t.TempDir()
	quiet := filepath.Join(dir, "quiet.pcap")
	if err := os.WriteFile(quiet, blob, 0o644); err != nil {
		t.Fatal(err)
	}
	for _, path := range []string{quiet, filepath.Join(dir, "missing.pcap")} {
		for _, poll := range []bool{false, true} {
			for _, cancelled := range []bool{false, true} {
				name := fmt.Sprintf("%s/poll=%v/cancel=%v", filepath.Base(path), poll, cancelled)
				t.Run(name, func(t *testing.T) {
					ctx, cancel := context.WithCancel(context.Background())
					defer cancel()
					opts, want := []FollowOption{FollowPoll(time.Hour)}, context.Canceled
					if !cancelled {
						opts, want = append(opts, FollowIdleExit(100*time.Millisecond)), io.EOF
					}
					fr := NewFollowReader(ctx, path, opts...)
					if poll {
						pollOnly(fr)
					}
					defer fr.Close()
					if path == quiet {
						if _, err := fr.ReadPacket(); err != nil {
							t.Fatal(err)
						}
					}
					done := make(chan error, 1)
					go func() {
						_, err := fr.ReadPacket()
						done <- err
					}()
					if cancelled {
						time.Sleep(20 * time.Millisecond)
						cancel()
					}
					select {
					case err := <-done:
						if !errors.Is(err, want) {
							t.Fatalf("got %v, want %v", err, want)
						}
					case <-time.After(2 * time.Second):
						t.Fatalf("ReadPacket still blocked after 2s, want %v", want)
					}
				})
			}
		}
	}
}
