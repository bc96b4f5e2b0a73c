// Package anycast models IP-anycast deployments, the redundancy layer §2
// of the paper describes: one service address announced from many global
// sites, with each client routed to (usually) its lowest-latency site.
// B-Root's anycast expansion between 2018 and 2020 is the paper's §3
// explanation for the growth in resolvers and ASes it observed, and
// per-site RTT differences are the raw material of Figures 5 and 8.
//
// Geography is synthetic but deterministic: clients hash to coordinates
// concentrated in population bands, propagation delay follows great-circle
// distance at ~2/3 c with a routing detour factor, and catchments are
// min-RTT with a small hash jitter standing in for BGP's imperfections.
package anycast

import (
	"fmt"
	"hash/fnv"
	"math"
	"net/netip"
	"time"
)

// Site is one anycast instance location.
type Site struct {
	// Code is an airport-style identifier.
	Code string
	// Lat and Lon are in degrees.
	Lat, Lon float64
}

// Deployment is the site set announcing one service address.
type Deployment struct {
	sites []Site
}

// NewDeployment validates and wraps a site set.
func NewDeployment(sites []Site) (*Deployment, error) {
	if len(sites) == 0 {
		return nil, fmt.Errorf("anycast: deployment needs at least one site")
	}
	for _, s := range sites {
		if s.Lat < -90 || s.Lat > 90 || s.Lon < -180 || s.Lon > 180 {
			return nil, fmt.Errorf("anycast: site %s has bad coordinates (%v, %v)", s.Code, s.Lat, s.Lon)
		}
	}
	return &Deployment{sites: append([]Site(nil), sites...)}, nil
}

// earthRadiusKm is the mean Earth radius.
const earthRadiusKm = 6371.0

// greatCircleKm computes the haversine distance between two coordinates.
func greatCircleKm(lat1, lon1, lat2, lon2 float64) float64 {
	toRad := func(d float64) float64 { return d * math.Pi / 180 }
	dLat := toRad(lat2 - lat1)
	dLon := toRad(lon2 - lon1)
	a := math.Sin(dLat/2)*math.Sin(dLat/2) +
		math.Cos(toRad(lat1))*math.Cos(toRad(lat2))*math.Sin(dLon/2)*math.Sin(dLon/2)
	return 2 * earthRadiusKm * math.Asin(math.Min(1, math.Sqrt(a)))
}

// PropagationRTT estimates the round-trip time over a distance: light in
// fiber at ~200 km/ms, times a detour factor for real routing, round trip,
// plus a base hop cost.
func PropagationRTT(km float64) time.Duration {
	const fiberKmPerMs = 200.0
	const detour = 1.6
	ms := 2*km*detour/fiberKmPerMs + 2 // 2ms base
	return time.Duration(ms * float64(time.Millisecond))
}

// ClientGeo maps an address to deterministic synthetic coordinates,
// weighted toward the latitudes where Internet population concentrates.
func ClientGeo(addr netip.Addr) (lat, lon float64) {
	h := fnv.New64a()
	b := addr.As16()
	_, _ = h.Write(b[:])
	x := h.Sum64()
	// Longitude uniform; latitude drawn from three bands (N temperate,
	// tropics, S temperate) with population-like weights 55/35/10.
	lon = float64(x%36000)/100 - 180
	band := (x >> 16) % 100
	frac := float64((x>>32)%1000) / 1000
	switch {
	case band < 55:
		lat = 25 + frac*35 // 25..60 N
	case band < 90:
		lat = -15 + frac*40 // 15 S .. 25 N
	default:
		lat = -45 + frac*30 // 45 S .. 15 S
	}
	return lat, lon
}

// Catch returns the site serving addr and the modeled RTT to it. BGP does
// not always pick the lowest-latency site; a small deterministic jitter
// per (addr, site) stands in for that noise.
func (d *Deployment) Catch(addr netip.Addr) (siteIdx int, rtt time.Duration) {
	lat, lon := ClientGeo(addr)
	best := -1
	var bestRTT time.Duration
	for i, s := range d.sites {
		r := PropagationRTT(greatCircleKm(lat, lon, s.Lat, s.Lon))
		r += jitter(addr, s.Code)
		if best < 0 || r < bestRTT {
			best, bestRTT = i, r
		}
	}
	return best, bestRTT
}

// jitter derives a stable 0–15ms offset per (addr, site).
func jitter(addr netip.Addr, site string) time.Duration {
	h := fnv.New32a()
	b := addr.As16()
	_, _ = h.Write(b[:])
	_, _ = h.Write([]byte(site))
	return time.Duration(h.Sum32()%15) * time.Millisecond
}

// BRootDeployments models B-Root's growing site set across the paper's
// snapshots: 2 sites in 2018 (LAX, MIA), then staged expansion. Counts
// and codes are illustrative; what matters is the growth.
var BRootDeployments = map[int]*Deployment{
	2018: mustDeployment([]Site{
		{Code: "lax", Lat: 33.94, Lon: -118.41},
		{Code: "mia", Lat: 25.79, Lon: -80.29},
	}),
	2019: mustDeployment([]Site{
		{Code: "lax", Lat: 33.94, Lon: -118.41},
		{Code: "mia", Lat: 25.79, Lon: -80.29},
		{Code: "ams", Lat: 52.31, Lon: 4.76},
	}),
	2020: mustDeployment([]Site{
		{Code: "lax", Lat: 33.94, Lon: -118.41},
		{Code: "mia", Lat: 25.79, Lon: -80.29},
		{Code: "ams", Lat: 52.31, Lon: 4.76},
		{Code: "sin", Lat: 1.36, Lon: 103.99},
		{Code: "gru", Lat: -23.44, Lon: -46.47},
		{Code: "nrt", Lat: 35.76, Lon: 140.39},
	}),
}

func mustDeployment(sites []Site) *Deployment {
	d, err := NewDeployment(sites)
	if err != nil {
		panic(err)
	}
	return d
}
