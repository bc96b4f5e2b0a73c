package udpengine

import (
	"bytes"
	"fmt"
	"net"
	"testing"
	"time"
)

// BenchmarkEngineEcho measures raw transport throughput — an echo
// handler strips everything but the socket plane, so batched-vs-portable
// here is the syscall amortization itself. The client drives windows of
// WINDOW in-flight datagrams through a ClientBatch (itself batched, so
// the generator is not the bottleneck) and b.N counts round-tripped
// datagrams.
func BenchmarkEngineEcho(b *testing.B) {
	for _, mode := range []struct {
		name     string
		portable bool
		gso      bool
	}{{"batched", false, false}, {"portable", true, false}, {"gso", false, true}} {
		b.Run(mode.name, func(b *testing.B) {
			e, err := Listen("127.0.0.1:0", echoHandler, Config{
				Batch: 32, Sockets: 1, Portable: mode.portable, GSO: mode.gso,
			})
			if err != nil {
				b.Fatalf("Listen: %v", err)
			}
			defer e.Close()
			conn, err := net.Dial("udp", e.Addr().String())
			if err != nil {
				b.Fatalf("dial: %v", err)
			}
			defer conn.Close()
			uconn := conn.(*net.UDPConn)
			cb, err := NewClientBatch(uconn, 32, 2048)
			if err != nil {
				b.Fatalf("client: %v", err)
			}
			if mode.gso && !cb.EnableGSO() {
				b.Skip("UDP_SEGMENT unavailable on this kernel")
			}
			payload := bytes.Repeat([]byte{0x5A}, 64)
			const window = 32
			b.ReportAllocs()
			b.SetBytes(int64(len(payload)))
			b.ResetTimer()
			done := 0
			for done < b.N {
				n := min(window, b.N-done)
				for i := 0; i < n; i++ {
					if err := cb.Queue(payload); err != nil {
						b.Fatalf("queue: %v", err)
					}
				}
				if err := cb.Flush(); err != nil {
					b.Fatalf("flush: %v", err)
				}
				got := 0
				uconn.SetReadDeadline(time.Now().Add(5 * time.Second))
				for got < n {
					views, err := cb.Recv()
					if err != nil {
						b.Fatalf("recv after %d/%d: %v", got, n, err)
					}
					got += len(views)
				}
				done += n
			}
			b.StopTimer()
			rate := float64(b.N) / b.Elapsed().Seconds()
			b.ReportMetric(rate, "datagrams/s")
		})
	}
}

// BenchmarkEngineEchoMultiSocket spreads the same echo load over
// multiple reuseport sockets from multiple client flows — the shape the
// CI multi-core run exercises; on a single-core host the sockets mostly
// serialize.
func BenchmarkEngineEchoMultiSocket(b *testing.B) {
	const sockets = 2
	e, err := Listen("127.0.0.1:0", echoHandler, Config{Batch: 32, Sockets: sockets})
	if err != nil {
		b.Fatalf("Listen: %v", err)
	}
	defer e.Close()
	if !e.Batched() {
		b.Skip("batched engine unavailable on this platform")
	}
	payload := bytes.Repeat([]byte{0x5A}, 64)
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		conn, err := net.Dial("udp", e.Addr().String())
		if err != nil {
			b.Errorf("dial: %v", err)
			return
		}
		defer conn.Close()
		uconn := conn.(*net.UDPConn)
		cb, err := NewClientBatch(uconn, 32, 2048)
		if err != nil {
			b.Errorf("client: %v", err)
			return
		}
		for pb.Next() {
			if err := cb.Queue(payload); err != nil {
				b.Errorf("queue: %v", err)
				return
			}
			if cb.pending < 32 {
				continue // fill the window before flushing
			}
			if err := flushAndDrain(uconn, cb, 32); err != nil {
				b.Errorf("%v", err)
				return
			}
		}
		if p := cb.pending; p > 0 {
			if err := flushAndDrain(uconn, cb, p); err != nil {
				b.Errorf("%v", err)
			}
		}
	})
}

func flushAndDrain(conn *net.UDPConn, cb *ClientBatch, want int) error {
	if err := cb.Flush(); err != nil {
		return fmt.Errorf("flush: %w", err)
	}
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	got := 0
	for got < want {
		views, err := cb.Recv()
		if err != nil {
			return fmt.Errorf("recv after %d/%d: %w", got, want, err)
		}
		got += len(views)
	}
	return nil
}
