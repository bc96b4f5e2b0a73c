package cloudmodel

import (
	"time"

	"dnscentral/internal/astrie"
)

// This file records the paper's published numbers verbatim, for the
// experiment harness to print next to measured values in EXPERIMENTS.md.

// PaperTable2Row describes one dataset-configuration row (Table 2).
type PaperTable2Row struct {
	Vantage  Vantage
	Week     Week
	NSSet    string // e.g. "4A" = 4 anycast servers
	Analyzed string
	ZoneSize int // delegations
}

// PaperTable2 reproduces Table 2.
var PaperTable2 = []PaperTable2Row{
	{VantageNL, W2018, "4A", "2A", 5_800_000},
	{VantageNL, W2019, "4A", "2A", 5_800_000},
	{VantageNL, W2020, "3A", "2A", 5_900_000},
	{VantageNZ, W2018, "6A,1U", "5A,1U", 720_000},
	{VantageNZ, W2019, "6A,1U", "5A,1U", 710_000},
	{VantageNZ, W2020, "6A,1U", "5A,1U", 710_000},
}

// NZSecondLevel and NZThirdLevel record the paper's .nz registration split
// ("140-141K second-level and 569-580K third-level domains").
const (
	NZSecondLevel = 140_500
	NZThirdLevel  = 574_500
)

// PaperTable3Row is one dataset row of Table 3.
type PaperTable3Row struct {
	Vantage      Vantage
	Week         Week
	TotalQueries float64
	ValidQueries float64
	Resolvers    int
	ASes         int
}

// PaperTable3 reproduces Table 3.
var PaperTable3 = []PaperTable3Row{
	{VantageNL, W2018, 7.29e9, 6.53e9, 2_090_000, 41276},
	{VantageNL, W2019, 10.16e9, 9.05e9, 2_180_000, 42727},
	{VantageNL, W2020, 13.75e9, 11.88e9, 1_990_000, 41716},
	{VantageNZ, W2018, 2.95e9, 2.00e9, 1_280_000, 37623},
	{VantageNZ, W2019, 3.48e9, 2.81e9, 1_420_000, 39601},
	{VantageNZ, W2020, 4.57e9, 3.03e9, 1_310_000, 38505},
	{VantageBRoot, W2018, 2.68e9, 0.93e9, 4_230_000, 45210},
	{VantageBRoot, W2019, 4.13e9, 1.43e9, 4_130_000, 48154},
	{VantageBRoot, W2020, 6.70e9, 1.34e9, 6_010_000, 51820},
}

// PaperFigure1CloudShare records the approximate stacked totals of
// Figure 1: the five providers' combined share of all queries.
var PaperFigure1CloudShare = map[Vantage]map[Week]float64{
	VantageNL:    {W2018: 0.31, W2019: 0.34, W2020: 0.33},
	VantageNZ:    {W2018: 0.27, W2019: 0.29, W2020: 0.29},
	VantageBRoot: {W2018: 0.057, W2019: 0.073, W2020: 0.087},
}

// PaperTable4 reproduces Tables 4 (w2020) and 7 (w2019): Google's query
// and resolver split between its public DNS ranges and the rest of its
// infrastructure.
type PaperGoogleSplit struct {
	Week           Week
	Vantage        Vantage
	TotalQueries   float64
	PublicQueries  float64
	TotalResolvers int
	PublicResolv   int
}

// PaperTable4 holds the w2020 and w2019 Google splits.
var PaperTable4 = []PaperGoogleSplit{
	{W2020, VantageNL, 1.81e9, 1.57e9, 23943, 3750},
	{W2020, VantageNZ, 328.7e6, 290.7e6, 21230, 3840},
	{W2019, VantageNL, 1.6e9, 1.49e9, 23344, 3581},
	{W2019, VantageNZ, 263.8e6, 222.9e6, 20089, 3575},
}

// PaperTable5Cell is one provider/year row of Table 5 for one ccTLD.
type PaperTable5Cell struct {
	IPv4, IPv6, UDP, TCP float64
}

// PaperTable5 reproduces Table 5 (query distribution per CP for the
// ccTLDs). Index: provider → week → vantage.
var PaperTable5 = map[astrie.Provider]map[Week]map[Vantage]PaperTable5Cell{
	astrie.ProviderGoogle: {
		W2018: {VantageNL: {0.66, 0.34, 1, 0}, VantageNZ: {0.61, 0.39, 1, 0}},
		W2019: {VantageNL: {0.49, 0.51, 1, 0}, VantageNZ: {0.54, 0.46, 1, 0}},
		W2020: {VantageNL: {0.52, 0.48, 1, 0}, VantageNZ: {0.54, 0.46, 1, 0}},
	},
	astrie.ProviderAmazon: {
		W2018: {VantageNL: {1, 0, 1, 0}, VantageNZ: {1, 0, 0.98, 0.02}},
		W2019: {VantageNL: {0.98, 0.02, 0.98, 0.02}, VantageNZ: {0.97, 0.03, 0.96, 0.04}},
		W2020: {VantageNL: {0.97, 0.03, 0.95, 0.05}, VantageNZ: {0.96, 0.04, 0.95, 0.05}},
	},
	astrie.ProviderMicrosoft: {
		W2018: {VantageNL: {1, 0, 1, 0}, VantageNZ: {1, 0, 1, 0}},
		W2019: {VantageNL: {1, 0, 1, 0}, VantageNZ: {1, 0, 1, 0}},
		W2020: {VantageNL: {1, 0, 1, 0}, VantageNZ: {1, 0, 1, 0}},
	},
	astrie.ProviderFacebook: {
		W2018: {VantageNL: {0.52, 0.48, 0.79, 0.21}, VantageNZ: {0.51, 0.49, 0.52, 0.48}},
		W2019: {VantageNL: {0.24, 0.76, 0.85, 0.15}, VantageNZ: {0.19, 0.81, 0.83, 0.17}},
		W2020: {VantageNL: {0.24, 0.76, 0.86, 0.14}, VantageNZ: {0.17, 0.83, 0.85, 0.15}},
	},
	astrie.ProviderCloudflare: {
		W2018: {VantageNL: {0.54, 0.46, 1, 0}, VantageNZ: {0.54, 0.46, 1, 0}},
		W2019: {VantageNL: {0.57, 0.43, 0.99, 0.01}, VantageNZ: {0.56, 0.44, 1, 0}},
		W2020: {VantageNL: {0.51, 0.49, 0.98, 0.02}, VantageNZ: {0.49, 0.51, 0.99, 0.01}},
	},
}

// PaperTable6Row reproduces Table 6 (Amazon and Microsoft resolver counts
// by family, week 2020).
type PaperTable6Row struct {
	Provider astrie.Provider
	Vantage  Vantage
	Total    int
	V4       int
	V6       int
}

// PaperTable6 holds the four published rows.
var PaperTable6 = []PaperTable6Row{
	{astrie.ProviderAmazon, VantageNL, 38317, 37640, 677},
	{astrie.ProviderAmazon, VantageNZ, 34645, 33908, 737},
	{astrie.ProviderMicrosoft, VantageNL, 14494, 14069, 425},
	{astrie.ProviderMicrosoft, VantageNZ, 10206, 9738, 468},
}

// PaperTruncation records §4.4's truncated-UDP-answer ratios for w2020 .nl.
var PaperTruncation = map[astrie.Provider]float64{
	astrie.ProviderFacebook:  0.1716,
	astrie.ProviderGoogle:    0.0004,
	astrie.ProviderMicrosoft: 0.0001,
}

// PaperFigure6 records the §4.4/Figure 6 EDNS(0) anchor points: ~30% of
// Facebook's UDP queries advertise 512 bytes; ~24% of Google's advertise
// at most 1232.
var PaperFigure6 = struct {
	FacebookAt512 float64
	GoogleAt1232  float64
}{FacebookAt512: 0.30, GoogleAt1232: 0.24}

// GoogleQminDeployment is the confirmed rollout month (§4.2.1: "Q-min
// deployment did take place in Dec. 2019").
var GoogleQminDeployment = time.Date(2019, time.December, 1, 0, 0, 0, 0, time.UTC)

// Month identifies one month of the Figure 3 longitudinal series.
type Month struct {
	Year  int
	Month time.Month
}

// String formats the month as "2019-12".
func (m Month) String() string {
	return time.Date(m.Year, m.Month, 1, 0, 0, 0, 0, time.UTC).Format("2006-01")
}

// Figure3Months is the monthly series of Figure 3 (Nov 2018 – Apr 2020).
var Figure3Months = func() []Month {
	var out []Month
	t := time.Date(2018, time.November, 1, 0, 0, 0, 0, time.UTC)
	end := time.Date(2020, time.April, 1, 0, 0, 0, 0, time.UTC)
	for !t.After(end) {
		out = append(out, Month{t.Year(), t.Month()})
		t = t.AddDate(0, 1, 0)
	}
	return out
}()

// GoogleMonthlyProfile returns Google's behavior for one Figure-3 month at
// a ccTLD vantage: whether Q-min is deployed and whether the .nz
// cyclic-dependency anomaly (Feb 2020, §4.2.1) inflates A/AAAA traffic.
func GoogleMonthlyProfile(v Vantage, m Month) (qmin bool, anomaly bool) {
	t := time.Date(m.Year, m.Month, 1, 0, 0, 0, 0, time.UTC)
	qmin = !t.Before(GoogleQminDeployment)
	anomaly = v == VantageNZ && m.Year == 2020 && m.Month == time.February
	return qmin, anomaly
}
