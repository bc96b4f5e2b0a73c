package cloudmodel

import (
	"math"
	"testing"
	"time"

	"dnscentral/internal/astrie"
)

// CloudShare sums the provider shares (Figure 1's stacked total).
func (vw *VantageWeek) CloudShare() float64 {
	sum := 0.0
	for _, p := range vw.Providers {
		sum += p.Share
	}
	return sum
}

func TestModelCoversAllVantagesAndWeeks(t *testing.T) {
	for _, v := range Vantages {
		for _, w := range Weeks {
			vw, err := Get(v, w)
			if err != nil {
				t.Fatalf("Get(%s,%s): %v", v, w, err)
			}
			if vw.Vantage != v || vw.Week != w {
				t.Errorf("%s/%s mislabeled: %s/%s", v, w, vw.Vantage, vw.Week)
			}
			if len(vw.Providers) != 5 {
				t.Errorf("%s/%s has %d providers", v, w, len(vw.Providers))
			}
		}
	}
	if _, err := Get("mars", W2018); err == nil {
		t.Error("unknown vantage accepted")
	}
}

func TestProfileInvariants(t *testing.T) {
	for _, v := range Vantages {
		for _, w := range Weeks {
			vw, _ := Get(v, w)
			for prov, p := range vw.Providers {
				check01 := func(name string, x float64) {
					if x < 0 || x > 1 || math.IsNaN(x) {
						t.Errorf("%s/%s/%s: %s = %v out of [0,1]", v, w, prov, name, x)
					}
				}
				check01("Share", p.Share)
				check01("V6Share", p.V6Share)
				check01("TCPShare", p.TCPShare)
				check01("QminShare", p.QminShare)
				check01("ValidateShare", p.ValidateShare)
				check01("JunkShare", p.JunkShare)
				check01("ResolverV6Frac", p.ResolverV6Frac)
				check01("PublicDNSShare", p.PublicDNSShare)
				check01("PublicResolverFrac", p.PublicResolverFrac)
				if p.Resolvers <= 0 {
					t.Errorf("%s/%s/%s: no resolvers", v, w, prov)
				}
				sum := 0.0
				for size, f := range p.EDNSSizes {
					if f < 0 {
						t.Errorf("%s/%s/%s: negative EDNS fraction at %d", v, w, prov, size)
					}
					sum += f
				}
				if math.Abs(sum-1) > 1e-9 {
					t.Errorf("%s/%s/%s: EDNS fractions sum to %v", v, w, prov, sum)
				}
			}
		}
	}
}

func TestCloudShareMatchesFigure1Shape(t *testing.T) {
	// ccTLDs: >25% and around 1/3 for .nl; B-Root: under 10%, growing.
	for _, w := range Weeks {
		nl, _ := Get(VantageNL, w)
		if s := nl.CloudShare(); s < 0.30 || s > 0.36 {
			t.Errorf(".nl %s cloud share = %v", w, s)
		}
		nz, _ := Get(VantageNZ, w)
		if s := nz.CloudShare(); s < 0.24 || s > 0.30 {
			t.Errorf(".nz %s cloud share = %v", w, s)
		}
	}
	b2020, _ := Get(VantageBRoot, W2020)
	if s := b2020.CloudShare(); math.Abs(s-0.087) > 0.01 {
		t.Errorf("B-Root w2020 cloud share = %v, want ≈0.087", s)
	}
	b2018, _ := Get(VantageBRoot, W2018)
	b2019, _ := Get(VantageBRoot, W2019)
	if !(b2018.CloudShare() < b2019.CloudShare() && b2019.CloudShare() < b2020.CloudShare()) {
		t.Error("B-Root cloud share must grow year over year (Figure 1c)")
	}
}

func TestGoogleBiggerAtNLThanNZ(t *testing.T) {
	for _, w := range Weeks {
		nl, _ := Get(VantageNL, w)
		nz, _ := Get(VantageNZ, w)
		if nl.Providers[astrie.ProviderGoogle].Share <= nz.Providers[astrie.ProviderGoogle].Share {
			t.Errorf("%s: Google .nl share must exceed .nz (paper §4.1)", w)
		}
	}
}

func TestMicrosoftProfileMatchesPaper(t *testing.T) {
	for _, v := range []Vantage{VantageNL, VantageNZ} {
		for _, w := range Weeks {
			vw, _ := Get(v, w)
			ms := vw.Providers[astrie.ProviderMicrosoft]
			if ms.V6Share != 0 || ms.TCPShare != 0 {
				t.Errorf("%s/%s: Microsoft must be all-IPv4 all-UDP (Table 5)", v, w)
			}
			if ms.ValidateShare != 0 {
				t.Errorf("%s/%s: Microsoft must not validate (§4.2.2)", v, w)
			}
			if ms.QminShare != 0 {
				t.Errorf("%s/%s: Microsoft never deployed Q-min in the study", v, w)
			}
		}
	}
}

func TestFacebookPrefersV6Since2019(t *testing.T) {
	for _, v := range []Vantage{VantageNL, VantageNZ} {
		for _, w := range []Week{W2019, W2020} {
			vw, _ := Get(v, w)
			if vw.Providers[astrie.ProviderFacebook].V6Share <= 0.5 {
				t.Errorf("%s/%s: Facebook must prefer IPv6 (Table 5)", v, w)
			}
		}
		vw, _ := Get(v, W2018)
		if vw.Providers[astrie.ProviderFacebook].V6Share > 0.5 {
			t.Errorf("%s/2018: Facebook was not yet majority-IPv6", v)
		}
	}
}

func TestQminAdoptionTimeline(t *testing.T) {
	for _, v := range []Vantage{VantageNL, VantageNZ} {
		for _, w := range []Week{W2018, W2019} {
			vw, _ := Get(v, w)
			if vw.Providers[astrie.ProviderGoogle].QminShare != 0 {
				t.Errorf("%s/%s: Google Q-min predates Dec 2019", v, w)
			}
		}
		vw, _ := Get(v, W2020)
		if vw.Providers[astrie.ProviderGoogle].QminShare < 0.5 {
			t.Errorf("%s/w2020: Google Q-min share too low", v)
		}
		// Three of five CPs with high NS share at both ccTLDs in 2020.
		high := 0
		for _, p := range vw.Providers {
			if p.QminShare >= 0.5 {
				high++
			}
		}
		if high != 3 {
			t.Errorf("%s/w2020: %d providers with majority Q-min, want 3 (§4.2.1)", v, high)
		}
	}
	// Amazon grew Q-min at .nz specifically.
	nz2020, _ := Get(VantageNZ, W2020)
	nl2020, _ := Get(VantageNL, W2020)
	if nz2020.Providers[astrie.ProviderAmazon].QminShare <= nl2020.Providers[astrie.ProviderAmazon].QminShare {
		t.Error("Amazon's .nz Q-min share must exceed .nl (§4.2.1)")
	}
}

func TestFacebookEDNS512Heavy(t *testing.T) {
	vw, _ := Get(VantageNL, W2020)
	fb := vw.Providers[astrie.ProviderFacebook]
	if math.Abs(fb.EDNSSizes[512]-0.30) > 0.01 {
		t.Errorf("Facebook 512-byte EDNS fraction = %v, want 0.30 (Fig 6)", fb.EDNSSizes[512])
	}
	g := vw.Providers[astrie.ProviderGoogle]
	upTo1232 := g.EDNSSizes[0] + g.EDNSSizes[512] + g.EDNSSizes[1232]
	if math.Abs(upTo1232-PaperFigure6.GoogleAt1232) > 0.02 {
		t.Errorf("Google ≤1232 fraction = %v, want ≈%v", upTo1232, PaperFigure6.GoogleAt1232)
	}
}

func TestOtherJunkShareReconcilesTable3(t *testing.T) {
	for _, v := range Vantages {
		for _, w := range Weeks {
			vw, _ := Get(v, w)
			cloudShare, cloudJunk := 0.0, 0.0
			for _, p := range vw.Providers {
				cloudShare += p.Share
				cloudJunk += p.Share * p.JunkShare
			}
			got := cloudJunk + (1-cloudShare)*vw.OtherJunkShare
			want := 1 - vw.ValidShare
			if math.Abs(got-want) > 0.02 {
				t.Errorf("%s/%s: reconstructed junk %v vs Table 3 %v", v, w, got, want)
			}
			// CPs send proportionally less junk than the long tail at the
			// root (Figure 4), with the noted 2019 Cloudflare exception.
			if v == VantageBRoot {
				for prov, p := range vw.Providers {
					if prov == astrie.ProviderCloudflare && w == W2019 {
						continue
					}
					if p.JunkShare >= vw.OtherJunkShare {
						t.Errorf("B-Root/%s/%s junk %v ≥ other %v", w, prov, p.JunkShare, vw.OtherJunkShare)
					}
				}
			}
		}
	}
}

func TestWeekYear(t *testing.T) {
	if W2018.Year() != 2018 || W2019.Year() != 2019 || W2020.Year() != 2020 {
		t.Error("week years wrong")
	}
}

func TestPaperTablesShape(t *testing.T) {
	if len(PaperTable3) != 9 {
		t.Errorf("Table 3 rows = %d", len(PaperTable3))
	}
	if len(PaperTable4) != 4 {
		t.Errorf("Table 4+7 rows = %d", len(PaperTable4))
	}
	if len(PaperTable6) != 4 {
		t.Errorf("Table 6 rows = %d", len(PaperTable6))
	}
	for p, weeks := range PaperTable5 {
		for w, cells := range weeks {
			for v, c := range cells {
				if math.Abs(c.IPv4+c.IPv6-1) > 0.011 {
					t.Errorf("Table5 %s/%s/%s IP shares sum to %v", p, w, v, c.IPv4+c.IPv6)
				}
				if math.Abs(c.UDP+c.TCP-1) > 0.011 {
					t.Errorf("Table5 %s/%s/%s transport shares sum to %v", p, w, v, c.UDP+c.TCP)
				}
			}
		}
	}
}

func TestFigure3Series(t *testing.T) {
	if len(Figure3Months) != 18 {
		t.Fatalf("Figure 3 months = %d, want 18 (Nov 2018 .. Apr 2020)", len(Figure3Months))
	}
	if Figure3Months[0].String() != "2018-11" || Figure3Months[17].String() != "2020-04" {
		t.Errorf("month range: %s..%s", Figure3Months[0], Figure3Months[17])
	}
	// Q-min flips on in Dec 2019.
	qmin, _ := GoogleMonthlyProfile(VantageNL, Month{2019, time.November})
	if qmin {
		t.Error("Q-min on before Dec 2019")
	}
	qmin, _ = GoogleMonthlyProfile(VantageNL, Month{2019, time.December})
	if !qmin {
		t.Error("Q-min off in Dec 2019")
	}
	// The anomaly hits only .nz in Feb 2020.
	_, anom := GoogleMonthlyProfile(VantageNZ, Month{2020, time.February})
	if !anom {
		t.Error("missing .nz Feb 2020 anomaly")
	}
	_, anom = GoogleMonthlyProfile(VantageNL, Month{2020, time.February})
	if anom {
		t.Error(".nl must not have the anomaly")
	}
	_, anom = GoogleMonthlyProfile(VantageNZ, Month{2020, time.March})
	if anom {
		t.Error("anomaly must end after Feb 2020")
	}
}

func TestResolverCountsMatchPublishedTables(t *testing.T) {
	nl2020, _ := Get(VantageNL, W2020)
	if nl2020.Providers[astrie.ProviderAmazon].Resolvers != 38317 {
		t.Error("Amazon .nl w2020 resolver count drifted from Table 6")
	}
	if nl2020.Providers[astrie.ProviderMicrosoft].Resolvers != 14494 {
		t.Error("Microsoft .nl w2020 resolver count drifted from Table 6")
	}
	if nl2020.Providers[astrie.ProviderGoogle].Resolvers != 23943 {
		t.Error("Google .nl w2020 resolver count drifted from Table 4")
	}
	nz2020, _ := Get(VantageNZ, W2020)
	if nz2020.Providers[astrie.ProviderAmazon].Resolvers != 34645 ||
		nz2020.Providers[astrie.ProviderMicrosoft].Resolvers != 10206 ||
		nz2020.Providers[astrie.ProviderGoogle].Resolvers != 21230 {
		t.Error(".nz w2020 resolver counts drifted from Tables 4/6")
	}
}
