// Command recursor runs the caching recursive-resolver tier over real
// UDP and TCP sockets: stub queries in, a sharded TTL cache in the
// middle, EWMA/P2C-selected authoritative upstreams behind it.
//
// The tier is built to survive its upstreams: RFC 8767 serve-stale
// (-max-stale, -stale-ttl), per-upstream circuit breakers
// (-breaker-failures, -breaker-open), an RFC 2308 failure cache
// (-fail-ttl), RFC 7873 upstream DNS cookies (-cookies), per-client
// response rate limiting (-rrl-rate) and a random-subdomain flood
// guard (-flood-nx-rate).
//
// On shutdown (SIGINT/SIGTERM) it prints the centralization-through-
// the-cache report — per-provider shares of the upstream traffic it
// emitted next to shares of the stub traffic it absorbed, the paper's
// authoritative vantage versus the client vantage — followed by the
// resilience report: availability, stale-serve share, amplification,
// and breaker/RRL/flood counters.
//
// Usage:
//
//	authserver -zone nl -listen 127.0.0.1:5300 &
//	authserver -zone nl -listen 127.0.0.1:5301 &
//	recursor -listen 127.0.0.1:5353 -zone nl \
//	    -upstreams cloudA=127.0.0.1:5300,cloudB=127.0.0.1:5301
//	dig @127.0.0.1 -p 5353 www.d42.nl A
package main

import (
	"flag"
	"fmt"
	"io"
	"net/netip"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"dnscentral/internal/profiling"
	"dnscentral/internal/recursor"
	"dnscentral/internal/resolver"
	"dnscentral/internal/telemetry"
)

func main() {
	var (
		listen    = flag.String("listen", "127.0.0.1:5353", "UDP+TCP listen address for stubs")
		upstreams = flag.String("upstreams", "local=127.0.0.1:5300", "comma-separated name=addr upstream list; shared names aggregate as one provider")
		zone      = flag.String("zone", "nl", "zone origin the upstreams are authoritative for")

		entries    = flag.Int("cache-entries", 1<<16, "answer cache bound (entries)")
		shards     = flag.Int("cache-shards", 16, "cache lock shards (rounded up to a power of two)")
		minTTL     = flag.Duration("min-ttl", time.Second, "floor on cached answer lifetimes")
		maxTTL     = flag.Duration("max-ttl", time.Hour, "cap on cached answer lifetimes")
		aggressive = flag.Bool("aggressive", false, "RFC 8198 aggressive NSEC negative caching")

		edns    = flag.Uint("edns", 1232, "EDNS(0) size advertised upstream (0 = no EDNS)")
		timeout = flag.Duration("timeout", 3*time.Second, "per-upstream exchange timeout")
		hedge   = flag.Duration("hedge-delay", 0, "race a second upstream after this delay (0 = off)")
		seed    = flag.Int64("seed", 1, "P2C tie-break seed")

		maxStale = flag.Duration("max-stale", time.Hour, "RFC 8767 serve-stale window past expiry (0 = off)")
		staleTTL = flag.Duration("stale-ttl", 30*time.Second, "TTL clamp on stale answers")
		failTTL  = flag.Duration("fail-ttl", 2*time.Second, "negative failure-cache window (0 = off)")

		brkFails = flag.Int("breaker-failures", 5, "consecutive upstream failures that open the circuit breaker (0 = off)")
		brkOpen  = flag.Duration("breaker-open", time.Second, "how long an open breaker rejects before a half-open probe")
		cookies  = flag.Bool("cookies", true, "round-trip RFC 7873 DNS cookies with upstreams")

		rrlRate  = flag.Float64("rrl-rate", 0, "per-client-IP UDP queries/sec budget (0 = off)")
		rrlBurst = flag.Float64("rrl-burst", 0, "RRL bucket depth (0 = 2×rate)")
		rrlSlip  = flag.Int("rrl-slip", 2, "answer every n-th over-limit query with TC=1 instead of dropping")

		floodNX    = flag.Int("flood-nx-rate", 0, "per-zone NXDOMAINs/sec that trip the water-torture guard (0 = off)")
		floodHold  = flag.Duration("flood-hold", 5*time.Second, "suppression hold once a zone trips")
		floodProbe = flag.Int("flood-probe", 1, "misses/sec still forwarded for a suppressed zone")

		workers    = flag.Int("udp-workers", 0, "deprecated alias for -udp-sockets")
		udpSockets = flag.Int("udp-sockets", 0, "SO_REUSEPORT UDP sockets / receive loops, each with its own Scratch (0 = GOMAXPROCS, capped at 8)")
		udpBatch   = flag.Int("udp-batch", 32, "datagrams per recvmmsg/sendmmsg syscall on the batched UDP engine")
		udpGSO     = flag.Bool("udp-gso", true, "UDP segmentation offload: coalesce equal-destination response runs into UDP_SEGMENT super-datagrams and split GRO-coalesced receives (auto-fallback on unsupported kernels)")
		udpPin     = flag.Bool("udp-pin", false, "pin each UDP socket loop to a CPU core and steer reuseport delivery to the receiving core's socket")
		idle       = flag.Duration("tcp-idle", 10*time.Second, "stub TCP idle timeout")
		maxTCP     = flag.Int("max-tcp", 128, "max concurrent stub TCP connections (<0 = unlimited)")
		verbose    = flag.Bool("v", false, "log per-error diagnostics")
	)
	tm := telemetry.RegisterFlags(flag.CommandLine)
	prof := profiling.Register(flag.CommandLine)
	flag.Parse()

	pool, err := parseUpstreams(*upstreams, *timeout, *seed)
	if err != nil {
		fatal(err)
	}
	if err := prof.Start(); err != nil {
		fatal(err)
	}
	defer prof.Stop()

	reg := tm.Registry()
	origin := strings.TrimSuffix(*zone, ".") + "."
	rec := recursor.New(recursor.Config{
		Origin:          origin,
		CacheEntries:    *entries,
		CacheShards:     *shards,
		EDNSSize:        uint16(*edns),
		UpstreamTimeout: *timeout,
		HedgeDelay:      *hedge,
		MinTTL:          *minTTL,
		MaxTTL:          *maxTTL,
		AggressiveNSEC:  *aggressive,
		MaxStale:        *maxStale,
		StaleTTL:        *staleTTL,
		FailTTL:         *failTTL,
		Breaker: recursor.BreakerConfig{
			Failures: *brkFails,
			OpenFor:  *brkOpen,
		},
		UseCookies: *cookies,
		RRL: recursor.RRLConfig{
			RatePerSec: *rrlRate,
			Burst:      *rrlBurst,
			SlipEvery:  *rrlSlip,
		},
		Flood: recursor.FloodConfig{
			NXPerSec:  *floodNX,
			Hold:      *floodHold,
			ProbeRate: *floodProbe,
		},
		Seed:      *seed,
		Telemetry: reg,
	}, pool)

	sockets := *udpSockets
	if sockets <= 0 {
		sockets = *workers // honor the deprecated -udp-workers spelling
	}
	srv, err := recursor.Serve(*listen, rec, recursor.ServerConfig{
		UDPWorkers:     sockets,
		UDPBatch:       *udpBatch,
		UDPGSO:         *udpGSO,
		UDPPin:         *udpPin,
		TCPIdleTimeout: *idle,
		MaxTCPConns:    *maxTCP,
		Telemetry:      reg,
	})
	if err != nil {
		fatal(err)
	}
	if *verbose {
		srv.Logf = func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, "recursor: "+format+"\n", args...)
		}
	}
	stopTm, err := tm.Start(func(w io.Writer) {
		rep := rec.Report()
		fmt.Fprintf(w, "recursor: %d stub queries, %.1f%% hit rate, %d hedges",
			rep.StubQueries, 100*rep.HitRate(), rep.Hedges)
	})
	if err != nil {
		fatal(err)
	}
	defer stopTm()
	fmt.Printf("recursor: serving %s stubs on %s (UDP+TCP), %d upstream(s), cache %d entries\n",
		origin, srv.Addr(), pool.Len(), *entries)

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig
	fmt.Println()
	fmt.Print(rec.Report().Format())
	rec.WaitRefreshes()
	fmt.Print(rec.Resilience().Format())
	_ = srv.Close()
	prof.Stop()
}

// parseUpstreams turns "cloudA=127.0.0.1:5300,cloudB=..." into a pool.
// The name is the provider label the centralization report groups by; a
// bare "addr" uses the address itself as the label.
func parseUpstreams(spec string, timeout time.Duration, seed int64) (*recursor.Pool, error) {
	var ups []*recursor.Upstream
	for _, part := range strings.Split(spec, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		name, addr := part, part
		if i := strings.IndexByte(part, '='); i >= 0 {
			name, addr = part[:i], part[i+1:]
		}
		ap, err := netip.ParseAddrPort(addr)
		if err != nil {
			return nil, fmt.Errorf("upstream %q: %w", part, err)
		}
		ups = append(ups, &recursor.Upstream{
			Name:      name,
			Transport: &resolver.NetTransport{Server: ap, Timeout: timeout},
		})
	}
	if len(ups) == 0 {
		return nil, fmt.Errorf("no upstreams in %q", spec)
	}
	return recursor.NewPool(seed, ups...), nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "recursor:", err)
	os.Exit(1)
}
