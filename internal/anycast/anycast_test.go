package anycast

import (
	"math/rand"
	"net/netip"
	"slices"
	"testing"
	"testing/quick"
	"time"
)

func randomClients(seed int64, n int) []netip.Addr {
	r := rand.New(rand.NewSource(seed))
	out := make([]netip.Addr, n)
	for i := range out {
		var b [4]byte
		r.Read(b[:])
		b[0] = 1 + b[0]%223
		out[i] = netip.AddrFrom4(b)
	}
	return out
}

// medianRTT is the median catchment RTT over a client population, the
// metric that improves as a deployment adds sites.
func medianRTT(d *Deployment, clients []netip.Addr) time.Duration {
	rtts := make([]time.Duration, len(clients))
	for i, a := range clients {
		_, rtts[i] = d.Catch(a)
	}
	slices.Sort(rtts)
	return rtts[len(rtts)/2]
}

func TestNewDeploymentValidation(t *testing.T) {
	if _, err := NewDeployment(nil); err == nil {
		t.Error("empty deployment accepted")
	}
	if _, err := NewDeployment([]Site{{Code: "bad", Lat: 123}}); err == nil {
		t.Error("bad latitude accepted")
	}
}

func TestGreatCircleKnownDistances(t *testing.T) {
	// LAX ↔ AMS is ≈8950 km.
	d := greatCircleKm(33.94, -118.41, 52.31, 4.76)
	if d < 8500 || d > 9400 {
		t.Errorf("LAX-AMS = %.0f km", d)
	}
	// Zero distance.
	if d := greatCircleKm(10, 20, 10, 20); d > 0.001 {
		t.Errorf("self distance = %v", d)
	}
}

func TestPropagationRTTMonotone(t *testing.T) {
	if PropagationRTT(0) < 2*time.Millisecond {
		t.Error("base cost missing")
	}
	if PropagationRTT(1000) >= PropagationRTT(5000) {
		t.Error("RTT not monotone in distance")
	}
	// Intercontinental ≈ 100-200ms.
	r := PropagationRTT(9000)
	if r < 80*time.Millisecond || r > 250*time.Millisecond {
		t.Errorf("9000km RTT = %v", r)
	}
}

func TestClientGeoDeterministicAndBounded(t *testing.T) {
	a := netip.MustParseAddr("203.0.113.7")
	lat1, lon1 := ClientGeo(a)
	lat2, lon2 := ClientGeo(a)
	if lat1 != lat2 || lon1 != lon2 {
		t.Fatal("geo not deterministic")
	}
	f := func(b [16]byte) bool {
		lat, lon := ClientGeo(netip.AddrFrom16(b))
		return lat >= -90 && lat <= 90 && lon >= -180 && lon <= 180
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500, Rand: rand.New(rand.NewSource(1))}); err != nil {
		t.Error(err)
	}
}

func TestCatchDeterministic(t *testing.T) {
	d := BRootDeployments[2020]
	a := netip.MustParseAddr("100.1.2.3")
	s1, r1 := d.Catch(a)
	s2, r2 := d.Catch(a)
	if s1 != s2 || r1 != r2 {
		t.Fatal("catchment not deterministic")
	}
	if s1 < 0 || s1 >= len(d.sites) {
		t.Fatalf("site index %d", s1)
	}
}

func TestMoreSitesLowerMedianRTT(t *testing.T) {
	clients := randomClients(1, 4000)
	m2018 := medianRTT(BRootDeployments[2018], clients)
	m2019 := medianRTT(BRootDeployments[2019], clients)
	m2020 := medianRTT(BRootDeployments[2020], clients)
	if !(m2020 < m2019 && m2019 < m2018) {
		t.Errorf("median RTTs not improving: 2018=%v 2019=%v 2020=%v", m2018, m2019, m2020)
	}
	// The 2020 expansion should cut the median substantially.
	if m2020 > m2018*8/10 {
		t.Errorf("2020 median %v not ≥20%% below 2018's %v", m2020, m2018)
	}
}

func TestCatchmentSharesSumToOne(t *testing.T) {
	clients := randomClients(2, 2000)
	d := BRootDeployments[2020]
	shares := make([]float64, len(d.sites))
	for _, a := range clients {
		i, _ := d.Catch(a)
		shares[i] += 1 / float64(len(clients))
	}
	sum := 0.0
	for _, s := range shares {
		if s < 0 {
			t.Fatalf("negative share %v", s)
		}
		sum += s
	}
	if sum < 0.999 || sum > 1.001 {
		t.Fatalf("shares sum to %v", sum)
	}
	// Every 2020 site should catch someone.
	for i, s := range shares {
		if s == 0 {
			t.Errorf("site %d (%s) catches nothing", i, d.sites[i].Code)
		}
	}
}

func TestSingleSiteCatchesEverything(t *testing.T) {
	d, err := NewDeployment([]Site{{Code: "only", Lat: 0, Lon: 0}})
	if err != nil {
		t.Fatal(err)
	}
	for _, a := range randomClients(3, 100) {
		if i, _ := d.Catch(a); i != 0 {
			t.Fatal("single-site catchment broke")
		}
	}
}
