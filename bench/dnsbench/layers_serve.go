package main

import (
	"context"
	"fmt"
	"math/rand"
	"net"
	"net/netip"
	"runtime"
	"time"

	"dnscentral/internal/authserver"
	"dnscentral/internal/dnswire"
	"dnscentral/internal/recursor"
	"dnscentral/internal/resolver"
	"dnscentral/internal/telemetry"
	"dnscentral/internal/udpengine"
	"dnscentral/internal/zonedb"
)

// The traced run replays the workload's own queries through each layer's
// public functions, in this process, and records one span per layer under
// the span "layers". A layer's number is its span's time divided by the
// operations the span covered; nothing inside the layers is instrumented.

// probe runs fn, which performs n operations, as one span and returns the
// time and the heap allocations per operation.
func (r *runner) probe(parent int, name string, n int, fn func()) (nsPerOp, allocsPerOp float64) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	sp := r.tr.begin(parent, name)
	fn()
	d := r.tr.end(sp, int64(n))
	runtime.ReadMemStats(&after)
	if n == 0 {
		return 0, 0
	}
	return float64(d.Nanoseconds()) / float64(n), float64(after.Mallocs-before.Mallocs) / float64(n)
}

// cannedTransport answers every query at once with a NOERROR referral
// built from the query itself: the recursor's own share of a miss (fill,
// pack, insert, eviction) without any server behind it.
type cannedTransport struct{}

func (cannedTransport) Exchange(q *dnswire.Message, tcp bool) (*dnswire.Message, time.Duration, error) {
	r := q.Reply()
	r.Authority = []dnswire.RR{{
		Name: q.Questions[0].Name, Class: dnswire.ClassIN, TTL: 3600,
		Data: dnswire.NSData{Host: "ns1.example.nl."},
	}}
	return r, time.Microsecond, nil
}

func (t cannedTransport) ExchangeContext(_ context.Context, q *dnswire.Message, tcp bool, _ time.Duration) (*dnswire.Message, time.Duration, error) {
	return t.Exchange(q, tcp)
}

// newRecursor builds a recursor with default settings over one upstream.
func newRecursor(t resolver.Transport) *recursor.Recursor {
	return recursor.New(recursor.Config{Origin: "nl."}, recursor.NewPool(1, &recursor.Upstream{Name: "local", Transport: t}))
}

// exchangeProbe times full exchanges with the live authserver, through
// the transport the recursor uses for a miss.
func (r *runner) exchangeProbe(res *runResult, layers int, p serveParams, auth netip.AddrPort) error {
	tr := &resolver.NetTransport{Server: auth, Timeout: 2 * time.Second}
	n := min(2000, r.sizes.replay)
	var err error
	ns, _ := r.probe(layers, "resolver.exchange", n, func() {
		for i := 0; i < n && err == nil; i++ {
			q := dnswire.NewQuery(uint16(i+1), fmt.Sprintf("x%d.d%d.nl.", i, i%p.domains), dnswire.TypeA).WithEdns(1232, false)
			_, _, err = tr.ExchangeContext(context.Background(), q, false, 0)
		}
	})
	res.metrics.set("resolver.exchange_us", ns/1000)
	return err
}

// serveLayers replays the first queries of the workload through the serve
// path's layers.
func (r *runner) serveLayers(res *runResult, layers int, p serveParams) error {
	m := res.metrics
	n := r.sizes.replay
	gen := hotGen(p.names)
	if !p.hot {
		gen = coldGen(p.domains, &r.coldSeq)
	}
	rng := rand.New(rand.NewSource(r.seed))
	queries := make([][]byte, n)
	for i := range queries {
		queries[i], _, _ = gen(rng, nil)
	}
	// The distinct queries: on the hot workload the names repeat.
	seen := make(map[string]bool)
	var distinct [][]byte
	for _, q := range queries {
		if k := string(q[12:]); !seen[k] {
			seen[k] = true
			distinct = append(distinct, q)
		}
	}

	// udpengine: a windowed echo through Listen and ClientBatch.
	reg := telemetry.New()
	echo := func(_ int, pkt []byte, _ netip.AddrPort, resp []byte) []byte { return append(resp, pkt...) }
	eng, err := udpengine.Listen("127.0.0.1:0", echo, udpengine.Config{GSO: true, Telemetry: reg})
	if err != nil {
		return err
	}
	defer eng.Close()
	conn, err := net.DialUDP("udp", nil, net.UDPAddrFromAddrPort(eng.Addr()))
	if err != nil {
		return err
	}
	defer conn.Close()
	cb, err := udpengine.NewClientBatch(conn, 32, 2048)
	if err != nil {
		return err
	}
	cb.EnableGSO()
	ns, _ := r.probe(layers, "udpengine.echo", n, func() {
		for done := 0; done < n && err == nil; {
			w := min(32, n-done)
			for _, q := range queries[done : done+w] {
				if err = cb.Queue(q); err != nil {
					return
				}
			}
			if err = cb.Flush(); err != nil {
				return
			}
			_ = conn.SetReadDeadline(time.Now().Add(2 * time.Second))
			for got := 0; got < w; {
				views, rerr := cb.Recv()
				if rerr != nil {
					err = rerr
					return
				}
				got += len(views)
			}
			done += w
		}
	})
	if err != nil {
		return fmt.Errorf("udpengine echo: %w", err)
	}
	m.set("udpengine.echo_ns_per_dgram", ns)
	sys := reg.Counter("udpengine_recv_syscalls_total").Value() + reg.Counter("udpengine_send_syscalls_total").Value()
	m.set("udpengine.syscalls_per_dgram", float64(sys)/float64(n))

	// dnswire.View: what the recursor's serve path reads of a query.
	var v dnswire.View
	name := make([]byte, 0, 256)
	ns, allocs := r.probe(layers, "dnswire.view", n, func() {
		for _, q := range queries {
			if v.Reset(q) != nil {
				continue
			}
			name, _, _, _ = v.Question(name[:0])
			_, _, _ = v.EDNS()
		}
	})
	m.set("dnswire.view_ns_per_msg", ns)
	m.set("dnswire.view_allocs", allocs)

	// authserver and zonedb: the upstream's share of a miss.
	zone, err := zonedb.NewCcTLD("nl", p.domains, 0, 0.55, []string{"ns1.dns.nl", "ns2.dns.nl"})
	if err != nil {
		return err
	}
	engine := authserver.NewEngine(zone)
	msgs := make([]*dnswire.Message, len(queries))
	names := make([]string, len(queries))
	for i, q := range queries {
		if msgs[i], err = dnswire.Unpack(q); err != nil {
			return err
		}
		names[i] = msgs[i].Questions[0].Name
	}
	client := netip.MustParseAddr("127.0.0.1")
	buf := make([]byte, 0, 4096)
	ns, allocs = r.probe(layers, "authserver.handle", n, func() {
		for _, q := range msgs {
			resp := engine.Handle(q, client, false)
			if buf, err = authserver.AppendResponse(buf[:0], resp, q, false); err != nil {
				return
			}
		}
	})
	if err != nil {
		return err
	}
	// The same again, untimed, to keep the responses for the next probes.
	responses := make([][]byte, len(queries))
	for i, q := range msgs {
		if responses[i], err = authserver.PackResponse(engine.Handle(q, client, false), q, false); err != nil {
			return err
		}
	}
	m.set("authserver.handle_ns_per_query", ns)
	m.set("authserver.handle_allocs", allocs)
	ns, _ = r.probe(layers, "zonedb.delegation", n, func() {
		for _, nm := range names {
			zone.Delegation(nm)
		}
	})
	m.set("zonedb.delegation_ns", ns)

	// dnswire.Unpack and AppendPack over the authserver's responses: what
	// the recursor does with each upstream answer.
	unpacked := make([]*dnswire.Message, len(responses))
	ns, allocs = r.probe(layers, "dnswire.unpack", n, func() {
		for i, w := range responses {
			if unpacked[i], err = dnswire.Unpack(w); err != nil {
				return
			}
		}
	})
	if err != nil {
		return err
	}
	m.set("dnswire.unpack_ns_per_msg", ns)
	m.set("dnswire.unpack_allocs", allocs)
	ns, allocs = r.probe(layers, "dnswire.pack", n, func() {
		for _, msg := range unpacked {
			if buf, err = msg.AppendPack(buf[:0]); err != nil {
				return
			}
		}
	})
	if err != nil {
		return err
	}
	m.set("dnswire.pack_ns_per_msg", ns)
	m.set("dnswire.pack_allocs", allocs)

	// recursor, miss path: every distinct query once through HandleWire,
	// the authserver engine answering in this process.
	rec := newRecursor(&resolver.EngineTransport{Engine: engine, Client: client})
	sc := recursor.NewScratch()
	out := make([]byte, 0, 4096)
	qnames := make([][]byte, len(queries))
	dos := make([]bool, len(queries))
	for i, q := range queries {
		if err := v.Reset(q); err != nil {
			return err
		}
		qnames[i], _, _, _ = v.Question(nil)
		e, has, _ := v.EDNS()
		dos[i] = has && e.DO
	}
	key := make([]byte, 0, 260)
	getProbe := func() {
		before := rec.Cache().Stats().LockedGets
		ns, _ := r.probe(layers, "recursor.cache_get", n, func() {
			for i := range queries {
				key = recursor.AppendKey(key[:0], qnames[i], dnswire.TypeA, dos[i])
				rec.Cache().Get(key)
			}
		})
		m.set("recursor.cache_get_ns", ns)
		m.set("recursor.locked_gets", float64(rec.Cache().Stats().LockedGets-before)/float64(n))
	}
	if !p.hot {
		// Before any fill the cold workload's lookups all miss, as they
		// do in the timed run.
		getProbe()
	}
	ns, _ = r.probe(layers, "recursor.handlewire_miss", len(distinct), func() {
		for _, q := range distinct {
			out = rec.HandleWire(q, out[:0], false, sc)
		}
	})
	m.set("recursor.handlewire_miss_ns", ns)
	if got := rec.Cache().Stats().Misses; got < uint64(len(distinct)) {
		return fmt.Errorf("recursor miss probe: %d misses for %d distinct queries", got, len(distinct))
	}

	// recursor, hit path: the same queries again, now cached.
	if p.hot {
		getProbe()
	}
	hitsBefore := rec.Cache().Stats().Hits
	ns, _ = r.probe(layers, "recursor.handlewire_hit", n, func() {
		for _, q := range queries {
			out = rec.HandleWire(q, out[:0], false, sc)
		}
	})
	m.set("recursor.handlewire_hit_ns", ns)
	if got := rec.Cache().Stats().Hits - hitsBefore; got != uint64(n) {
		return fmt.Errorf("recursor hit probe: %d hits for %d queries", got, n)
	}

	// recursor, fill at capacity: unique keys into a full cache, nothing
	// behind the recursor. Only the cold workload fills in its steady state.
	if !p.hot {
		full := newRecursor(cannedTransport{})
		cold := coldGen(p.domains, &r.coldSeq)
		for i := 0; i < 1<<16; i++ {
			q, _, _ := cold(rng, buf[:0])
			out = full.HandleWire(q, out[:0], false, sc)
		}
		fresh := make([][]byte, n)
		for i := range fresh {
			fresh[i], _, _ = cold(rng, nil)
		}
		evBefore := full.Cache().Stats().Evictions
		ns, _ = r.probe(layers, "recursor.cache_fill", n, func() {
			for _, q := range fresh {
				out = full.HandleWire(q, out[:0], false, sc)
			}
		})
		m.set("recursor.cache_fill_ns", ns)
		m.set("recursor.evictions", float64(full.Cache().Stats().Evictions-evBefore)/float64(n))
	}

	// The cost stack: what the layers above explain of a query's CPU time
	// in the servers. One echo stands for one pass through a server's
	// socket engine; indented rows are inside the row above them.
	if p.hot {
		costStack(res, []stackRow{
			{"udpengine.echo_ns_per_dgram", 1, 0},
			{"recursor.handlewire_hit_ns", 1, 0},
			{"dnswire.view_ns_per_msg", 1, 1},
			{"recursor.cache_get_ns", 1, 1},
		})
	} else {
		costStack(res, []stackRow{
			{"udpengine.echo_ns_per_dgram", 2, 0}, // recursor and authserver
			{"recursor.handlewire_miss_ns", 1, 0},
			{"dnswire.view_ns_per_msg", 1, 1},
			{"recursor.cache_get_ns", 1, 1},
			{"recursor.cache_fill_ns", 1, 1},
			{"authserver.handle_ns_per_query", 1, 1},
			{"zonedb.delegation_ns", 1, 2},
			{"dnswire.unpack_ns_per_msg", 2, 1}, // the query there, the answer here
			{"dnswire.pack_ns_per_msg", 2, 1},
		})
	}
	return nil
}
