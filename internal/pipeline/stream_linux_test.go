package pipeline

import (
	"bytes"
	"context"
	"errors"
	"os"
	"strings"
	"testing"
	"time"

	"dnscentral/internal/cloudmodel"
	"dnscentral/internal/entrada"
	"dnscentral/internal/pcapio"
	"dnscentral/internal/telemetry"
)

// TestRunStreamClosesWindowOnWrite: with an hour-long poll, appending the
// record that crosses a window boundary must deliver that window to
// OnWindow within 5 s, so only a change event can pass.
func TestRunStreamClosesWindowOnWrite(t *testing.T) {
	const width = time.Hour
	blob, reg, origin := genWeek(t, cloudmodel.VantageNL, 2000, 5)
	// Find the first record past the first packet's window: the capture
	// starts with everything before it, and the record itself is appended.
	r, err := pcapio.NewReader(bytes.NewReader(blob))
	if err != nil {
		t.Fatal(err)
	}
	var first int64
	var cross, crossEnd int64 // byte range of the crossing record
	for i := 0; ; i++ {
		start := r.Offset()
		pkt, err := r.ReadPacket()
		if err != nil {
			t.Fatalf("no packet crosses a window boundary: %v", err)
		}
		idx := pkt.Timestamp.UnixNano() / int64(width)
		if i == 0 {
			first = idx
		} else if idx > first {
			cross, crossEnd = start, r.Offset()
			break
		}
	}
	path := writeCapture(t, blob[:cross])

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	windows := make(chan Window, 4)
	tm := telemetry.New()
	done := make(chan error, 1)
	go func() {
		_, _, err := RunStream(ctx, path, StreamOptions{
			Options: Options{Workers: 2, Registry: reg, Telemetry: tm,
				AnalyzerOpts: []entrada.Option{entrada.WithZoneOrigin(origin)}},
			Window: width,
			Poll:   time.Hour,
			OnWindow: func(w Window) {
				windows <- w
			},
		})
		done <- err
	}()

	time.Sleep(100 * time.Millisecond) // let the reader catch up and wait
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(blob[cross:crossEnd]); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	select {
	case w := <-windows:
		if w.Index != first {
			t.Fatalf("closed window %d, want %d", w.Index, first)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("no window closed within 5s of the write")
	}

	cancel()
	if err := <-done; !errors.Is(err, context.Canceled) {
		t.Fatalf("RunStream: %v, want context.Canceled", err)
	}
	var sb strings.Builder
	if err := tm.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	page := sb.String()
	if !strings.Contains(page, MetricFollowWakeups+`{cause="poll"} 0`+"\n") {
		t.Fatalf("want no poll wakeups:\n%s", page)
	}
	if strings.Contains(page, MetricFollowWakeups+`{cause="event"} 0`+"\n") {
		t.Fatalf("want event wakeups:\n%s", page)
	}
}
