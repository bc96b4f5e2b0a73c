package recursor

import (
	"sync"
	"time"
)

// FloodConfig tunes the random-subdomain (water-torture) detector.
// The attack pattern: many queries for never-before-seen labels under
// one victim zone, every one a cache miss and an upstream NXDOMAIN.
// Per-IP rate limiting alone cannot stop it when sources are spread,
// but the per-zone NXDOMAIN-miss rate gives it away.
type FloodConfig struct {
	// NXPerSec is the NXDOMAIN-per-second rate per zone above which the
	// zone is suppressed (0 disables the guard).
	NXPerSec int
	// Hold is how long a tripped zone stays suppressed after the rate
	// subsides (default 5s).
	Hold time.Duration
	// ProbeRate is the misses-per-second trickle still forwarded for a
	// suppressed zone, so a zone that comes back (or a legitimate burst
	// that tripped the guard) is noticed without re-opening the flood
	// (default 1).
	ProbeRate int
	// MaxZones bounds the per-zone table (default 1024).
	MaxZones int
}

func (cfg FloodConfig) withDefaults() FloodConfig {
	if cfg.Hold <= 0 {
		cfg.Hold = 5 * time.Second
	}
	if cfg.ProbeRate <= 0 {
		cfg.ProbeRate = 1
	}
	if cfg.MaxZones <= 0 {
		cfg.MaxZones = 1024
	}
	return cfg
}

// zoneState tracks one zone's NXDOMAIN rate window and suppression.
type zoneState struct {
	winStart  time.Time // start of the current 1s counting window
	nx        int       // NXDOMAINs seen in the window
	suppUntil time.Time // zone suppressed until this instant
	probeWin  time.Time // start of the current probe-budget window
	probes    int       // probes granted in the probe window
}

// floodGuard is the water-torture detector: admitMiss gates cache
// misses before they reach upstream, noteNXDomain feeds the per-zone
// rate that trips suppression.
type floodGuard struct {
	cfg FloodConfig
	now func() time.Time

	mu    sync.Mutex
	zones map[string]*zoneState
}

func newFloodGuard(cfg FloodConfig, now func() time.Time) *floodGuard {
	if cfg.NXPerSec <= 0 {
		return nil
	}
	return &floodGuard{
		cfg:   cfg.withDefaults(),
		now:   now,
		zones: make(map[string]*zoneState),
	}
}

// admitMiss reports whether a cache miss for zone may proceed to the
// upstream path. Suppressed zones still pass ProbeRate misses per
// second so recovery is observable.
func (g *floodGuard) admitMiss(zone string) bool {
	now := g.now()
	g.mu.Lock()
	defer g.mu.Unlock()
	z := g.zones[zone]
	if z == nil || now.After(z.suppUntil) {
		return true
	}
	if now.Sub(z.probeWin) >= time.Second {
		z.probeWin, z.probes = now, 0
	}
	if z.probes < g.cfg.ProbeRate {
		z.probes++
		return true
	}
	return false
}

// noteNXDomain records an upstream NXDOMAIN for zone, rotating the 1s
// rate window and tripping suppression when the rate crosses NXPerSec.
// While suppressed, further NXDOMAINs (the probe trickle failing)
// extend the hold.
func (g *floodGuard) noteNXDomain(zone string) {
	now := g.now()
	g.mu.Lock()
	defer g.mu.Unlock()
	z := g.zones[zone]
	if z == nil {
		if len(g.zones) >= g.cfg.MaxZones {
			g.sweep(now)
		}
		z = &zoneState{winStart: now}
		g.zones[zone] = z
	}
	if now.Sub(z.winStart) >= time.Second {
		z.winStart, z.nx = now, 0
	}
	z.nx++
	if z.nx >= g.cfg.NXPerSec {
		z.suppUntil = now.Add(g.cfg.Hold)
	}
}

// sweep bounds the zone table: quiet, unsuppressed zones go first; if
// every tracked zone is hot the table is recycled (suppression restarts
// from a clean rate window, which the flood immediately re-trips).
func (g *floodGuard) sweep(now time.Time) {
	for name, z := range g.zones {
		if now.After(z.suppUntil) && now.Sub(z.winStart) >= time.Second {
			delete(g.zones, name)
		}
	}
	if len(g.zones) >= g.cfg.MaxZones {
		g.zones = make(map[string]*zoneState)
	}
}
