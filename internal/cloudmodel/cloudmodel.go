// Package cloudmodel holds the calibrated behavioral model of the five
// cloud providers and the three vantage points. Two kinds of data live
// here:
//
//  1. Behavior profiles (Profile) that drive the synthetic workload
//     generator: per provider, per vantage, per measurement week — traffic
//     share, IPv6 share, deliberate TCP share, QNAME-minimization and
//     DNSSEC-validation fleet fractions, EDNS(0) size mix, junk ratio,
//     resolver population and public-DNS split.
//  2. The paper's published numbers (Paper* variables) that the
//     experiment harness compares measured values against in
//     EXPERIMENTS.md.
//
// Profile values are calibrated so that the analysis pipeline reproduces
// the published *shape*: who wins, by what factor, where the crossovers
// are. They are not claimed to be exact per-query reconstructions.
package cloudmodel

import (
	"fmt"

	"dnscentral/internal/astrie"
)

// Vantage is a measurement vantage point.
type Vantage string

// The three vantage points of the study.
const (
	VantageNL    Vantage = "nl"
	VantageNZ    Vantage = "nz"
	VantageBRoot Vantage = "b-root"
)

// Vantages lists all vantage points in the paper's order.
var Vantages = []Vantage{VantageNL, VantageNZ, VantageBRoot}

// Week is a yearly snapshot identifier (Table 2).
type Week string

// The three measurement weeks.
const (
	W2018 Week = "w2018"
	W2019 Week = "w2019"
	W2020 Week = "w2020"
)

// Weeks lists all snapshots in order.
var Weeks = []Week{W2018, W2019, W2020}

// Year returns the calendar year of the week's snapshot.
func (w Week) Year() int {
	switch w {
	case W2018:
		return 2018
	case W2019:
		return 2019
	default:
		return 2020
	}
}

// Profile describes one provider's behavior at one vantage in one week.
type Profile struct {
	// Share is the provider's fraction of ALL queries at the vantage
	// (Figure 1).
	Share float64
	// V6Share is the fraction of the provider's queries sent over IPv6
	// (Table 5).
	V6Share float64
	// TCPShare is the fraction of queries deliberately sent over TCP
	// (Table 5); truncation-induced TCP retries come on top of this.
	TCPShare float64
	// QminShare is the fraction of the provider's query volume issued by
	// QNAME-minimizing resolvers (§4.2.1).
	QminShare float64
	// ValidateShare is the fraction issued by DNSSEC-validating resolvers
	// (§4.2.2).
	ValidateShare float64
	// DSShare is the fraction of the provider's queries that are DS
	// lookups (§4.2.2: Google sent ~10M DS of 1.8B total at .nl in w2020;
	// Cloudflare's DS share is visibly higher than its DNSKEY share).
	DSShare float64
	// DNSKEYShare is the fraction that are DNSKEY lookups (at most once
	// per TTL, hence tiny).
	DNSKEYShare float64
	// JunkShare is the fraction of the provider's queries for
	// non-existing names (Figure 4).
	JunkShare float64
	// EDNSSizes is the advertised EDNS(0) UDP size mix (Figure 6);
	// size 0 means "no EDNS". Fractions sum to 1.
	EDNSSizes map[uint16]float64
	// Resolvers is the number of distinct resolver addresses
	// (Tables 4 and 6).
	Resolvers int
	// ResolverV6Frac is the fraction of resolver addresses that are IPv6
	// (Table 6).
	ResolverV6Frac float64
	// PublicDNSShare is the fraction of the provider's queries sent from
	// its public-DNS ranges (Table 4: 86.5% for Google at .nl in w2020).
	PublicDNSShare float64
	// PublicResolverFrac is the fraction of resolver addresses in the
	// public ranges (Table 4: 15.6%).
	PublicResolverFrac float64
}

// VantageWeek is the complete model of one vantage in one week.
type VantageWeek struct {
	Vantage Vantage
	Week    Week
	// TotalQueries is the real-world total (Table 3), used only for
	// documentation and scale factors.
	TotalQueries float64
	// ValidShare is the fraction of all queries answered NOERROR
	// (Table 3 valid/total).
	ValidShare float64
	// Resolvers and ASes are the real-world distinct counts (Table 3).
	Resolvers int
	ASes      int
	// OtherJunkShare is the junk fraction of long-tail (non-cloud)
	// queries, derived so the vantage-wide junk matches ValidShare.
	OtherJunkShare float64
	// Providers holds the per-provider profiles.
	Providers map[astrie.Provider]Profile
}

// Get returns the model for a vantage/week pair.
func Get(v Vantage, w Week) (*VantageWeek, error) {
	vw, ok := Model[v][w]
	if !ok {
		return nil, fmt.Errorf("cloudmodel: no model for %s/%s", v, w)
	}
	return vw, nil
}

// Standard EDNS size mixes. Facebook's heavy 512-byte usage is the §4.4
// truncation driver; Google/Microsoft advertise mostly large buffers.
var (
	ednsFacebook = map[uint16]float64{512: 0.30, 1232: 0.20, 1452: 0.25, 4096: 0.25}
	ednsGoogle   = map[uint16]float64{0: 0.02, 512: 0.002, 1232: 0.218, 4096: 0.76}
	ednsMSFT     = map[uint16]float64{0: 0.03, 1232: 0.22, 4096: 0.75}
	ednsAmazon   = map[uint16]float64{0: 0.05, 512: 0.05, 1232: 0.15, 4096: 0.75}
	ednsCF       = map[uint16]float64{1232: 0.30, 1452: 0.40, 4096: 0.30}
)

// gp builds a Google profile; helpers keep the literal table readable.
func gp(share, v6, tcp, qmin, junk float64, resolvers int, v6frac, pubShare, pubResolv float64) Profile {
	return Profile{
		Share: share, V6Share: v6, TCPShare: tcp, QminShare: qmin,
		ValidateShare: 0.95, DSShare: 0.006, DNSKEYShare: 0.0005,
		JunkShare: junk, EDNSSizes: ednsGoogle,
		Resolvers: resolvers, ResolverV6Frac: v6frac,
		PublicDNSShare: pubShare, PublicResolverFrac: pubResolv,
	}
}

func amzn(share, v6, tcp, qmin, junk float64, resolvers int, v6frac float64) Profile {
	return Profile{
		Share: share, V6Share: v6, TCPShare: tcp, QminShare: qmin,
		ValidateShare: 0.7, DSShare: 0.02, DNSKEYShare: 0.001,
		JunkShare: junk, EDNSSizes: ednsAmazon,
		Resolvers: resolvers, ResolverV6Frac: v6frac,
	}
}

func msft(share, junk float64, resolvers int, v6frac float64) Profile {
	// Microsoft: IPv4-only, UDP-only, no Q-min, and the paper's "except
	// for one" non-validating provider (§4.2.2).
	return Profile{
		Share: share, V6Share: 0, TCPShare: 0, QminShare: 0,
		ValidateShare: 0, DSShare: 0, DNSKEYShare: 0,
		JunkShare: junk, EDNSSizes: ednsMSFT,
		Resolvers: resolvers, ResolverV6Frac: v6frac,
	}
}

func fb(share, v6, tcp, qmin, junk float64, resolvers int) Profile {
	return Profile{
		Share: share, V6Share: v6, TCPShare: tcp, QminShare: qmin,
		ValidateShare: 0.9, DSShare: 0.03, DNSKEYShare: 0.002,
		JunkShare: junk, EDNSSizes: ednsFacebook,
		Resolvers: resolvers, ResolverV6Frac: 0.45,
	}
}

func cf(share, v6, tcp, qmin, junk float64, resolvers int) Profile {
	return Profile{
		Share: share, V6Share: v6, TCPShare: tcp, QminShare: qmin,
		ValidateShare: 1.0, DSShare: 0.09, DNSKEYShare: 0.004,
		JunkShare: junk, EDNSSizes: ednsCF,
		Resolvers: resolvers, ResolverV6Frac: 0.45,
		PublicDNSShare: 0.95, PublicResolverFrac: 0.6,
	}
}

// Model is the full calibrated dataset. Shares follow Figure 1; IPv6/TCP
// follow Table 5; resolver counts follow Tables 4 and 6; valid-query
// fractions follow Table 3; Q-min fleet fractions encode the §4.2.1
// adoption timeline (Google deployed in Dec 2019, Cloudflare had deployed
// earlier, Facebook and — at .nz — Amazon grew NS shares by 2020).
var Model = map[Vantage]map[Week]*VantageWeek{
	VantageNL: {
		W2018: {
			Vantage: VantageNL, Week: W2018,
			TotalQueries: 7.29e9, ValidShare: 6.53 / 7.29,
			Resolvers: 2_090_000, ASes: 41276,
			Providers: map[astrie.Provider]Profile{
				astrie.ProviderGoogle:     gp(0.140, 0.34, 0, 0, 0.10, 21000, 0.30, 0.86, 0.15),
				astrie.ProviderAmazon:     amzn(0.070, 0.00, 0, 0, 0.12, 30000, 0.002),
				astrie.ProviderMicrosoft:  msft(0.050, 0.15, 12000, 0.02),
				astrie.ProviderFacebook:   fb(0.020, 0.48, 0.35, 0, 0.08, 2600),
				astrie.ProviderCloudflare: cf(0.030, 0.46, 0, 0.20, 0.12, 1500),
			},
		},
		W2019: {
			Vantage: VantageNL, Week: W2019,
			TotalQueries: 10.16e9, ValidShare: 9.05 / 10.16,
			Resolvers: 2_180_000, ASes: 42727,
			Providers: map[astrie.Provider]Profile{
				astrie.ProviderGoogle:     gp(0.150, 0.51, 0, 0, 0.10, 23344, 0.32, 0.893, 0.154),
				astrie.ProviderAmazon:     amzn(0.078, 0.02, 0.02, 0, 0.12, 34000, 0.010),
				astrie.ProviderMicrosoft:  msft(0.050, 0.15, 13500, 0.025),
				astrie.ProviderFacebook:   fb(0.022, 0.76, 0.22, 0, 0.08, 2800),
				astrie.ProviderCloudflare: cf(0.038, 0.43, 0.01, 0.55, 0.14, 1700),
			},
		},
		W2020: {
			Vantage: VantageNL, Week: W2020,
			TotalQueries: 13.75e9, ValidShare: 11.88 / 13.75,
			Resolvers: 1_990_000, ASes: 41716,
			Providers: map[astrie.Provider]Profile{
				astrie.ProviderGoogle:     gp(0.132, 0.48, 0, 0.86, 0.07, 23943, 0.33, 0.865, 0.156),
				astrie.ProviderAmazon:     amzn(0.080, 0.03, 0.05, 0.10, 0.09, 38317, 0.018),
				astrie.ProviderMicrosoft:  msft(0.050, 0.11, 14494, 0.030),
				astrie.ProviderFacebook:   fb(0.025, 0.76, 0.12, 0.80, 0.06, 3000),
				astrie.ProviderCloudflare: cf(0.045, 0.49, 0.02, 1.0, 0.08, 1900),
			},
		},
	},
	VantageNZ: {
		W2018: {
			Vantage: VantageNZ, Week: W2018,
			TotalQueries: 2.95e9, ValidShare: 2.00 / 2.95,
			Resolvers: 1_280_000, ASes: 37623,
			Providers: map[astrie.Provider]Profile{
				astrie.ProviderGoogle:     gp(0.070, 0.39, 0, 0, 0.11, 18000, 0.30, 0.86, 0.17),
				astrie.ProviderAmazon:     amzn(0.090, 0.00, 0.02, 0, 0.13, 27000, 0.002),
				astrie.ProviderMicrosoft:  msft(0.060, 0.16, 8500, 0.03),
				astrie.ProviderFacebook:   fb(0.020, 0.49, 0.75, 0, 0.09, 2400),
				astrie.ProviderCloudflare: cf(0.030, 0.46, 0, 0.20, 0.13, 1400),
			},
		},
		W2019: {
			Vantage: VantageNZ, Week: W2019,
			TotalQueries: 3.48e9, ValidShare: 2.81 / 3.48,
			Resolvers: 1_420_000, ASes: 39601,
			Providers: map[astrie.Provider]Profile{
				astrie.ProviderGoogle:     gp(0.076, 0.46, 0, 0, 0.11, 20089, 0.31, 0.844, 0.177),
				astrie.ProviderAmazon:     amzn(0.090, 0.03, 0.04, 0, 0.13, 31000, 0.012),
				astrie.ProviderMicrosoft:  msft(0.060, 0.16, 9500, 0.04),
				astrie.ProviderFacebook:   fb(0.024, 0.81, 0.25, 0, 0.09, 2600),
				astrie.ProviderCloudflare: cf(0.034, 0.44, 0, 0.55, 0.15, 1600),
			},
		},
		W2020: {
			Vantage: VantageNZ, Week: W2020,
			TotalQueries: 4.57e9, ValidShare: 3.03 / 4.57,
			Resolvers: 1_310_000, ASes: 38505,
			Providers: map[astrie.Provider]Profile{
				astrie.ProviderGoogle:     gp(0.072, 0.46, 0, 0.86, 0.08, 21230, 0.32, 0.884, 0.181),
				astrie.ProviderAmazon:     amzn(0.094, 0.04, 0.05, 0.35, 0.10, 34645, 0.021),
				astrie.ProviderMicrosoft:  msft(0.060, 0.12, 10206, 0.046),
				astrie.ProviderFacebook:   fb(0.026, 0.83, 0.14, 0.80, 0.07, 2800),
				astrie.ProviderCloudflare: cf(0.040, 0.51, 0, 1.0, 0.09, 1800),
			},
		},
	},
	VantageBRoot: {
		W2018: {
			Vantage: VantageBRoot, Week: W2018,
			TotalQueries: 2.68e9, ValidShare: 0.93 / 2.68,
			Resolvers: 4_230_000, ASes: 45210,
			Providers: map[astrie.Provider]Profile{
				astrie.ProviderGoogle:     gp(0.025, 0.35, 0, 0, 0.30, 20000, 0.30, 0.86, 0.15),
				astrie.ProviderAmazon:     amzn(0.013, 0.00, 0, 0, 0.35, 24000, 0.002),
				astrie.ProviderMicrosoft:  msft(0.010, 0.40, 9000, 0.02),
				astrie.ProviderFacebook:   fb(0.004, 0.48, 0.30, 0, 0.25, 2000),
				astrie.ProviderCloudflare: cf(0.008, 0.46, 0, 0.20, 0.35, 1200),
			},
		},
		W2019: {
			Vantage: VantageBRoot, Week: W2019,
			TotalQueries: 4.13e9, ValidShare: 1.43 / 4.13,
			Resolvers: 4_130_000, ASes: 48154,
			Providers: map[astrie.Provider]Profile{
				astrie.ProviderGoogle:    gp(0.030, 0.50, 0, 0, 0.28, 21000, 0.31, 0.87, 0.15),
				astrie.ProviderAmazon:    amzn(0.016, 0.02, 0.01, 0, 0.33, 27000, 0.01),
				astrie.ProviderMicrosoft: msft(0.012, 0.38, 10000, 0.025),
				astrie.ProviderFacebook:  fb(0.005, 0.78, 0.20, 0, 0.24, 2200),
				// The one exception in Figure 4: Cloudflare's junk at
				// B-Root in 2019 was comparable to the overall junk level.
				astrie.ProviderCloudflare: cf(0.010, 0.44, 0, 0.55, 0.62, 1400),
			},
		},
		W2020: {
			Vantage: VantageBRoot, Week: W2020,
			TotalQueries: 6.70e9, ValidShare: 1.34 / 6.70,
			Resolvers: 6_010_000, ASes: 51820,
			Providers: map[astrie.Provider]Profile{
				astrie.ProviderGoogle:     gp(0.035, 0.48, 0, 0.86, 0.22, 23000, 0.32, 0.87, 0.15),
				astrie.ProviderAmazon:     amzn(0.020, 0.03, 0.02, 0.10, 0.28, 30000, 0.018),
				astrie.ProviderMicrosoft:  msft(0.015, 0.35, 11000, 0.03),
				astrie.ProviderFacebook:   fb(0.005, 0.80, 0.12, 0.80, 0.20, 2400),
				astrie.ProviderCloudflare: cf(0.012, 0.49, 0, 1.0, 0.30, 1500),
			},
		},
	},
}

func init() {
	// Derive OtherJunkShare per vantage/week so the overall junk matches
	// Table 3: junk_total = Σ share_p·junk_p + share_other·junk_other.
	for _, weeks := range Model {
		for _, vw := range weeks {
			cloudShare, cloudJunk := 0.0, 0.0
			for _, p := range vw.Providers {
				cloudShare += p.Share
				cloudJunk += p.Share * p.JunkShare
			}
			wantJunk := 1 - vw.ValidShare
			otherShare := 1 - cloudShare
			if otherShare <= 0 {
				vw.OtherJunkShare = wantJunk
				continue
			}
			oj := (wantJunk - cloudJunk) / otherShare
			if oj < 0 {
				oj = 0
			}
			if oj > 1 {
				oj = 1
			}
			vw.OtherJunkShare = oj
		}
	}
}
