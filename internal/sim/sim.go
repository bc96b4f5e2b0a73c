// Package sim wires the full mechanism chain end to end: real resolver
// logic (caching, QNAME minimization, DNSSEC validation, EDNS-driven TCP
// fallback, RTT-based family preference) from internal/resolver, against a
// real authoritative engine from internal/authserver, with every exchange
// also emitted as wire-faithful pcap frames carrying the resolver's
// synthetic source address.
//
// Where internal/workload *samples* behavior from calibrated
// distributions, sim *derives* it from the mechanisms themselves — the
// ablation benchmarks compare the two, showing the paper's aggregate
// signatures (NS-share jump under Q-min, truncation→TCP under small EDNS)
// emerge from first principles.
package sim

import (
	"fmt"
	"net/netip"
	"sync"
	"time"

	"dnscentral/internal/authserver"
	"dnscentral/internal/dnswire"
	"dnscentral/internal/faults"
	"dnscentral/internal/layers"
	"dnscentral/internal/resolver"
	"dnscentral/internal/workload"
	"dnscentral/internal/zonedb"
)

// Clock is a deterministic virtual clock shared by a simulation.
type Clock struct {
	mu  sync.Mutex
	now time.Time
}

// NewClock starts at start.
func NewClock(start time.Time) *Clock { return &Clock{now: start} }

// Now returns the current virtual time.
func (c *Clock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

// Advance moves the clock forward.
func (c *Clock) Advance(d time.Duration) {
	c.mu.Lock()
	c.now = c.now.Add(d)
	c.mu.Unlock()
}

// Sim hosts one authoritative zone and any number of tapped resolvers.
type Sim struct {
	Engine *authserver.Engine
	Clock  *Clock

	mu        sync.Mutex
	sink      workload.PacketSink
	server4   netip.Addr
	server6   netip.Addr
	nextPort  uint16
	faults    *faults.Config
	injectors []*faults.Injector
}

// Config for a simulation.
type Config struct {
	Zone *zonedb.Zone
	// Sink receives the capture; nil discards packets.
	Sink workload.PacketSink
	// Server4/Server6 are the authoritative addresses (defaults provided).
	Server4, Server6 netip.Addr
	// Start is the virtual start time.
	Start time.Time
	// RRL optionally enables response rate limiting on the engine.
	RRL *authserver.RRLConfig
	// Faults, when non-nil, impairs every resolver's network path with
	// the configured loss/duplication/corruption/brownout plan (each
	// resolver gets its own deterministic injector seeded from
	// Faults.Seed, and its timeouts/backoffs advance the virtual
	// clock). Per-resolver overrides live on ResolverSpec.Faults.
	Faults *faults.Config
}

// New builds a simulation.
func New(cfg Config) (*Sim, error) {
	if cfg.Zone == nil {
		return nil, fmt.Errorf("sim: zone required")
	}
	if !cfg.Server4.IsValid() {
		cfg.Server4 = netip.MustParseAddr("198.51.99.1")
	}
	if !cfg.Server6.IsValid() {
		cfg.Server6 = netip.MustParseAddr("2001:500:1b::99:1")
	}
	if cfg.Start.IsZero() {
		cfg.Start = time.Date(2020, 4, 5, 0, 0, 0, 0, time.UTC)
	}
	clock := NewClock(cfg.Start)
	opts := []authserver.Option{authserver.WithClock(clock.Now)}
	if cfg.RRL != nil {
		opts = append(opts, authserver.WithRRL(*cfg.RRL))
	}
	return &Sim{
		Engine:   authserver.NewEngine(cfg.Zone, opts...),
		Clock:    clock,
		sink:     cfg.Sink,
		server4:  cfg.Server4,
		server6:  cfg.Server6,
		nextPort: 1024,
		faults:   cfg.Faults,
	}, nil
}

// ResolverSpec describes one simulated resolver.
type ResolverSpec struct {
	// Addr4/Addr6: at least one must be valid; both make it dual-stack.
	Addr4, Addr6 netip.Addr
	// RTT4/RTT6 are the one-way network delays used for the virtual
	// clock and the TCP handshake shapes in the capture.
	RTT4, RTT6 time.Duration
	// Config is the resolver behavior (Q-min, validation, EDNS size...).
	Config resolver.Config
	// Faults overrides the simulation-wide impairment plan for this
	// resolver's path (nil inherits the Sim config).
	Faults *faults.Config
}

// AddResolver registers a resolver whose exchanges are tapped into the
// capture. When an impairment plan is configured, the resolver's path
// runs through a dedicated fault injector whose waits (lost-exchange
// timeouts, reorder delays, retry backoff) advance the virtual clock.
func (s *Sim) AddResolver(spec ResolverSpec) (*resolver.Resolver, error) {
	if !spec.Addr4.IsValid() && !spec.Addr6.IsValid() {
		return nil, fmt.Errorf("sim: resolver needs an address")
	}
	if spec.Config.Now == nil {
		spec.Config.Now = s.Clock.Now
	}
	if spec.Config.Sleep == nil {
		spec.Config.Sleep = s.Clock.Advance
	}
	fcfg := spec.Faults
	if fcfg == nil {
		fcfg = s.faults
	}
	var inj *faults.Injector
	if fcfg != nil && fcfg.Enabled() {
		// One injector per resolver: both families share the brownout
		// schedule and decision stream, and a sequentially driven
		// resolver consumes it deterministically.
		inj = faults.NewInjector(*fcfg)
		s.mu.Lock()
		s.injectors = append(s.injectors, inj)
		s.mu.Unlock()
	}
	impair := func(t resolver.Transport) resolver.Transport {
		if inj == nil {
			return t
		}
		return faults.WrapTransport(t, inj, s.Clock.Advance)
	}
	r := resolver.New(s.Engine.Zone().Origin, spec.Config)
	if spec.Addr4.IsValid() {
		rtt := spec.RTT4
		if rtt == 0 {
			rtt = 10 * time.Millisecond
		}
		r.AddUpstream(resolver.FamilyV4, impair(&tapTransport{
			sim: s, client: spec.Addr4, server: s.server4, rtt: rtt,
		}))
	}
	if spec.Addr6.IsValid() {
		rtt := spec.RTT6
		if rtt == 0 {
			rtt = 10 * time.Millisecond
		}
		r.AddUpstream(resolver.FamilyV6, impair(&tapTransport{
			sim: s, client: spec.Addr6, server: s.server6, rtt: rtt,
		}))
	}
	return r, nil
}

// allocPort hands out ephemeral ports.
func (s *Sim) allocPort() uint16 {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.nextPort++
	if s.nextPort < 1024 {
		s.nextPort = 1024
	}
	return s.nextPort
}

// emit writes a frame to the sink if one is configured.
func (s *Sim) emit(ts time.Time, frame []byte, err error) error {
	if err != nil {
		return err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.sink == nil {
		return nil
	}
	return s.sink.WritePacket(ts, frame)
}

// tapTransport performs in-process exchanges against the engine while
// emitting the equivalent wire traffic (UDP datagrams or a full TCP
// connection) into the capture, stamped with virtual time.
type tapTransport struct {
	sim    *Sim
	client netip.Addr
	server netip.Addr
	rtt    time.Duration
}

// Exchange implements resolver.Transport.
func (t *tapTransport) Exchange(q *dnswire.Message, tcp bool) (*dnswire.Message, time.Duration, error) {
	s := t.sim
	qwire, err := q.Pack()
	if err != nil {
		return nil, 0, err
	}
	parsed, err := dnswire.Unpack(qwire)
	if err != nil {
		return nil, 0, err
	}
	resp := s.Engine.Handle(parsed, t.client, tcp)
	if resp == nil {
		return nil, 0, fmt.Errorf("sim: query dropped (RRL)")
	}
	rwire, err := authserver.PackResponse(resp, parsed, tcp)
	if err != nil {
		return nil, 0, err
	}
	answer, err := dnswire.Unpack(rwire)
	if err != nil {
		return nil, 0, err
	}

	src := netip.AddrPortFrom(t.client, s.allocPort())
	dst := netip.AddrPortFrom(t.server, 53)
	// The capture is taken at the server: the query arrives after half an
	// RTT of virtual time.
	s.Clock.Advance(t.rtt / 2)
	ts := s.Clock.Now()
	if tcp {
		if err := t.emitTCPConn(ts, src, dst, qwire, rwire); err != nil {
			return nil, 0, err
		}
		s.Clock.Advance(3 * t.rtt / 2) // handshake + response travel
		return answer, 2 * t.rtt, nil
	}
	frame, err := buildUDPFrame(src, dst, qwire)
	if err := s.emit(ts, frame, err); err != nil {
		return nil, 0, err
	}
	frame, err = buildUDPFrame(dst, src, rwire)
	if err := s.emit(ts.Add(200*time.Microsecond), frame, err); err != nil {
		return nil, 0, err
	}
	s.Clock.Advance(t.rtt / 2)
	return answer, t.rtt, nil
}

func buildUDPFrame(src, dst netip.AddrPort, payload []byte) ([]byte, error) {
	return layers.BuildUDP(src, dst, payload)
}

// emitTCPConn writes handshake, framed messages and teardown.
func (t *tapTransport) emitTCPConn(ts time.Time, src, dst netip.AddrPort, qwire, rwire []byte) error {
	s := t.sim
	proc := 200 * time.Microsecond
	frameQ := append([]byte{byte(len(qwire) >> 8), byte(len(qwire))}, qwire...)
	frameR := append([]byte{byte(len(rwire) >> 8), byte(len(rwire))}, rwire...)
	const iss, irs = 1000, 2000
	steps := []struct {
		at   time.Time
		from netip.AddrPort
		to   netip.AddrPort
		meta layers.TCPMeta
		data []byte
	}{
		{ts, src, dst, layers.TCPMeta{Seq: iss, Flags: layers.TCPFlagSYN}, nil},
		{ts.Add(proc), dst, src, layers.TCPMeta{Seq: irs, Ack: iss + 1, Flags: layers.TCPFlagSYN | layers.TCPFlagACK}, nil},
		{ts.Add(proc + t.rtt), src, dst, layers.TCPMeta{Seq: iss + 1, Ack: irs + 1, Flags: layers.TCPFlagACK}, nil},
		{ts.Add(proc + t.rtt + 50*time.Microsecond), src, dst, layers.TCPMeta{Seq: iss + 1, Ack: irs + 1, Flags: layers.TCPFlagPSH | layers.TCPFlagACK}, frameQ},
		{ts.Add(proc + t.rtt + 250*time.Microsecond), dst, src, layers.TCPMeta{Seq: irs + 1, Ack: iss + 1 + uint32(len(frameQ)), Flags: layers.TCPFlagPSH | layers.TCPFlagACK}, frameR},
		{ts.Add(proc + 2*t.rtt + 300*time.Microsecond), src, dst, layers.TCPMeta{Seq: iss + 1 + uint32(len(frameQ)), Ack: irs + 1 + uint32(len(frameR)), Flags: layers.TCPFlagFIN | layers.TCPFlagACK}, nil},
		{ts.Add(proc + 2*t.rtt + 500*time.Microsecond), dst, src, layers.TCPMeta{Seq: irs + 1 + uint32(len(frameR)), Ack: iss + 2 + uint32(len(frameQ)), Flags: layers.TCPFlagFIN | layers.TCPFlagACK}, nil},
	}
	for _, st := range steps {
		frame, err := layers.BuildTCP(st.from, st.to, st.meta, st.data)
		if err := s.emit(st.at, frame, err); err != nil {
			return err
		}
	}
	return nil
}
