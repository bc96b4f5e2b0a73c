// Command authserver runs a standalone authoritative DNS server for a
// synthetic ccTLD or root zone over real UDP and TCP sockets. Point any
// resolver (including cmd/resolversim or dig) at it.
//
// Usage:
//
//	authserver -zone nl -domains 100000 -listen 127.0.0.1:5300
//	dig @127.0.0.1 -p 5300 d42.nl NS
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"syscall"
	"time"

	"dnscentral/internal/authserver"
	"dnscentral/internal/faults"
	"dnscentral/internal/profiling"
	"dnscentral/internal/telemetry"
	"dnscentral/internal/zonedb"
)

func main() {
	var (
		zoneName = flag.String("zone", "nl", "zone origin: nl, nz, or root")
		domains  = flag.Int("domains", 100_000, "number of second-level delegations")
		third    = flag.Int("third", 0, "number of third-level delegations (nz-style)")
		signed   = flag.Float64("signed", 0.55, "fraction of delegations with DS records")
		listen   = flag.String("listen", "127.0.0.1:5300", "UDP+TCP listen address")
		rrl      = flag.Float64("rrl", 0, "responses/second/client rate limit (0 = off)")
		verbose  = flag.Bool("v", false, "log per-error diagnostics")

		idle   = flag.Duration("tcp-idle", 10*time.Second, "TCP idle timeout before the server hangs up")
		maxTCP = flag.Int("max-tcp", 128, "max concurrent TCP connections (<0 = unlimited)")

		udpBatch   = flag.Int("udp-batch", 32, "datagrams per recvmmsg/sendmmsg syscall on the batched UDP engine")
		udpSockets = flag.Int("udp-sockets", 0, "SO_REUSEPORT UDP sockets / receive loops (0 = GOMAXPROCS, capped at 8)")
		udpGSO     = flag.Bool("udp-gso", true, "UDP segmentation offload: coalesce equal-destination response runs into UDP_SEGMENT super-datagrams and split GRO-coalesced receives (auto-fallback on unsupported kernels)")
		udpPin     = flag.Bool("udp-pin", false, "pin each UDP socket loop to a CPU core and steer reuseport delivery to the receiving core's socket")

		loss    = flag.Float64("chaos-loss", 0, "impairment proxy: per-direction UDP loss probability")
		dup     = flag.Float64("chaos-dup", 0, "impairment proxy: response duplication probability")
		corrupt = flag.Float64("chaos-corrupt", 0, "impairment proxy: response corruption probability")
		trunc   = flag.Float64("chaos-truncate", 0, "impairment proxy: forced TC=1 probability")
		tcpfail = flag.Float64("chaos-tcpfail", 0, "impairment proxy: TCP connection failure probability")
		latency = flag.Duration("chaos-latency", 0, "impairment proxy: extra one-way latency")
		jitter  = flag.Duration("chaos-jitter", 0, "impairment proxy: uniform extra latency bound")
		cseed   = flag.Int64("chaos-seed", 1, "impairment proxy: fault seed")
	)
	tm := telemetry.RegisterFlags(flag.CommandLine)
	prof := profiling.Register(flag.CommandLine)
	flag.Parse()

	if err := prof.Start(); err != nil {
		fatal(err)
	}
	defer prof.Stop()

	var (
		zone *zonedb.Zone
		err  error
	)
	if *zoneName == "root" || *zoneName == "." {
		zone, err = zonedb.NewRoot(zonedb.DefaultRootTLDs, []string{"b.root-servers.net"})
	} else {
		zone, err = zonedb.NewCcTLD(*zoneName, *domains, *third, *signed,
			[]string{"ns1.dns." + *zoneName, "ns2.dns." + *zoneName})
	}
	if err != nil {
		fatal(err)
	}

	reg := tm.Registry()
	var opts []authserver.Option
	if reg != nil {
		opts = append(opts, authserver.WithTelemetry(reg))
	}
	if *rrl > 0 {
		opts = append(opts, authserver.WithRRL(authserver.RRLConfig{
			RatePerSec: *rrl, Burst: *rrl * 2, SlipEvery: 1,
		}))
	}
	chaos := faults.Config{
		Loss: *loss, Duplicate: *dup, Corrupt: *corrupt, Truncate: *trunc,
		TCPFail: *tcpfail, Latency: *latency, Jitter: *jitter, Seed: *cseed,
		Telemetry: reg,
	}
	scfg := authserver.ServerConfig{
		TCPIdleTimeout: *idle,
		MaxTCPConns:    *maxTCP,
		UDPBatch:       *udpBatch,
		UDPSockets:     *udpSockets,
		UDPGSO:         *udpGSO,
		UDPPin:         *udpPin,
		Telemetry:      reg,
	}

	// With impairment configured, the public address is the chaos proxy
	// and the real server hides behind it on an ephemeral loopback port.
	serverAddr := *listen
	if chaos.Enabled() {
		serverAddr = "127.0.0.1:0"
	}
	srv, err := authserver.ListenConfig(serverAddr, authserver.NewEngine(zone, opts...), scfg)
	if err != nil {
		fatal(err)
	}
	stopTm, err := tm.Start(func(w io.Writer) {
		st := srv.Engine().Stats()
		fmt.Fprintf(w, "authserver: %d queries (%d referrals, %d NXDOMAIN, %d RRL drops)",
			st.Queries, st.Referrals, st.NXDomain, st.RRLDrops)
	})
	if err != nil {
		fatal(err)
	}
	defer stopTm()
	if *verbose {
		srv.Logf = func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, "authserver: "+format+"\n", args...)
		}
	}
	var proxy *faults.Proxy
	if chaos.Enabled() {
		proxy, err = faults.NewProxy(*listen, srv.Addr(), chaos)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("authserver: impairment proxy on %s (loss %.2f dup %.2f corrupt %.2f truncate %.2f tcpfail %.2f seed %d)\n",
			proxy.Addr(), chaos.Loss, chaos.Duplicate, chaos.Corrupt, chaos.Truncate, chaos.TCPFail, chaos.Seed)
	}
	fmt.Printf("authserver: serving %s (%d delegations) on %s (UDP+TCP)\n",
		zone.Origin, zone.Size(), srv.Addr())

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig
	st := srv.Engine().Stats()
	fmt.Printf("\nauthserver: %d queries (%d referrals, %d NXDOMAIN, %d refused, %d RRL slips)\n",
		st.Queries, st.Referrals, st.NXDomain, st.Refused, st.RRLSlips)
	if proxy != nil {
		fs := proxy.Stats()
		fmt.Printf("authserver: proxy injected %d faults over %d exchanges\n", fs.Total(), fs.Exchanges)
		_ = proxy.Close()
	}
	_ = srv.Close()
	prof.Stop()
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "authserver:", err)
	os.Exit(1)
}
