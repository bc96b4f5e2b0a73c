package pcapio

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"testing"
	"time"
)

// The tests here use an hour-long poll and a 5 s bound, so only a change
// event can pass them; the bound is loose to stay stable on a loaded box.

// readWithin returns the next packet, failing the test if none arrives
// within 5 s.
func readWithin(t *testing.T, fr *FollowReader) Packet {
	t.Helper()
	type result struct {
		pkt Packet
		err error
	}
	done := make(chan result, 1)
	go func() {
		pkt, err := fr.ReadPacket()
		done <- result{pkt, err}
	}()
	select {
	case r := <-done:
		if r.err != nil {
			t.Fatal(r.err)
		}
		return r.pkt
	case <-time.After(5 * time.Second):
		t.Fatal("no packet within 5s of the write")
		return Packet{}
	}
}

// noPolls fails the test if a wait of fr ended other than by an event.
func noPolls(t *testing.T, fr *FollowReader) {
	t.Helper()
	if n := fr.PollWakeups(); n != 0 {
		t.Fatalf("PollWakeups() = %d, want 0", n)
	}
	if fr.EventWakeups() == 0 {
		t.Fatal("EventWakeups() = 0: the reader never waited for an event")
	}
}

// TestFollowWakesOnWrite: a record appended while ReadPacket blocks on
// a quiet file is returned.
func TestFollowWakesOnWrite(t *testing.T) {
	blob, offsets := makePcap(t, 2)
	path := filepath.Join(t.TempDir(), "live.pcap")
	if err := os.WriteFile(path, blob[:offsets[0]], 0o644); err != nil {
		t.Fatal(err)
	}
	fr := NewFollowReader(context.Background(), path, FollowPoll(time.Hour))
	defer fr.Close()
	if fr.watch == nil {
		t.Fatal("no inotify watcher")
	}
	readWithin(t, fr)

	go func() {
		time.Sleep(50 * time.Millisecond) // let ReadPacket block first
		f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0)
		if err != nil {
			panic(err)
		}
		defer f.Close()
		if _, err := f.Write(blob[offsets[0]:]); err != nil {
			panic(err)
		}
	}()
	pkt := readWithin(t, fr)
	if want := bytes.Repeat([]byte{1}, 21); !bytes.Equal(pkt.Data, want) {
		t.Fatalf("got packet %v, want %v", pkt.Data, want)
	}
	noPolls(t, fr)
}

// TestFollowWakesOnRotation: a file renamed over the followed path, and
// a file that appears after the reader started, each wake the reader.
func TestFollowWakesOnRotation(t *testing.T) {
	first, _ := makePcap(t, 1)
	second, _ := makePcap(t, 2)

	t.Run("rename", func(t *testing.T) {
		dir := t.TempDir()
		path := filepath.Join(dir, "rot.pcap")
		if err := os.WriteFile(path, first, 0o644); err != nil {
			t.Fatal(err)
		}
		fr := NewFollowReader(context.Background(), path, FollowPoll(time.Hour))
		defer fr.Close()
		readWithin(t, fr)
		go func() {
			time.Sleep(50 * time.Millisecond)
			next := filepath.Join(dir, "rot.pcap.new")
			if err := os.WriteFile(next, second, 0o644); err != nil {
				panic(err)
			}
			if err := os.Rename(next, path); err != nil {
				panic(err)
			}
		}()
		readWithin(t, fr)
		readWithin(t, fr)
		if fr.Rotations() != 1 {
			t.Fatalf("Rotations() = %d, want 1", fr.Rotations())
		}
		noPolls(t, fr)
	})

	t.Run("appear", func(t *testing.T) {
		path := filepath.Join(t.TempDir(), "late.pcap")
		fr := NewFollowReader(context.Background(), path, FollowPoll(time.Hour))
		defer fr.Close()
		go func() {
			time.Sleep(50 * time.Millisecond)
			if err := os.WriteFile(path, second, 0o644); err != nil {
				panic(err)
			}
		}()
		readWithin(t, fr)
		readWithin(t, fr)
		noPolls(t, fr)
	})
}
