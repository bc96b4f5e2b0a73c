// Package stats provides the small statistical machinery the reproduction
// needs: empirical CDFs (Figure 6), medians (Figure 5's median TCP RTTs),
// a bounded Zipf sampler for domain-name popularity, weighted choice for
// per-provider traffic mix, and simple histograms.
package stats

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
)

// CDFPoint is one step of an empirical CDF.
type CDFPoint struct {
	Value    float64
	Fraction float64 // P(X <= Value)
}

// CDFAt evaluates an empirical CDF (as returned by Histogram.CDF) at v.
func CDFAt(cdf []CDFPoint, v float64) float64 {
	// Binary search for the last point with Value <= v.
	lo, hi := 0, len(cdf)
	for lo < hi {
		mid := (lo + hi) / 2
		if cdf[mid].Value <= v {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo == 0 {
		return 0
	}
	return cdf[lo-1].Fraction
}

// Zipf draws ranks in [0, n) with frequency proportional to 1/(rank+1)^s,
// matching the heavy-tailed popularity of queried domain names. It wraps
// math/rand.Zipf with a fixed, documented parameterization.
type Zipf struct {
	z *rand.Zipf
}

// NewZipf creates a sampler over n items with skew s > 1 would be required
// by rand.Zipf; we accept s > 0 by clamping to the library's s > 1
// constraint with the customary s=1.0001 near-harmonic setting.
func NewZipf(r *rand.Rand, s float64, n uint64) *Zipf {
	if s <= 1 {
		s = 1.0001
	}
	return &Zipf{z: rand.NewZipf(r, s, 1, n-1)}
}

// Next draws a rank in [0, n).
func (z *Zipf) Next() uint64 { return z.z.Uint64() }

// WeightedChoice selects indexes in proportion to non-negative weights.
type WeightedChoice struct {
	cum []float64
}

// NewWeightedChoice builds a sampler; at least one weight must be positive.
func NewWeightedChoice(weights []float64) (*WeightedChoice, error) {
	cum := make([]float64, len(weights))
	sum := 0.0
	for i, w := range weights {
		if w < 0 || math.IsNaN(w) {
			return nil, fmt.Errorf("stats: negative weight %v at %d", w, i)
		}
		sum += w
		cum[i] = sum
	}
	if sum == 0 {
		return nil, fmt.Errorf("stats: all weights zero")
	}
	return &WeightedChoice{cum: cum}, nil
}

// Pick draws an index using r.
func (w *WeightedChoice) Pick(r *rand.Rand) int {
	total := w.cum[len(w.cum)-1]
	x := r.Float64() * total
	return sort.SearchFloat64s(w.cum, x)
}

// Histogram counts observations in integer-keyed buckets (e.g. EDNS sizes).
type Histogram struct {
	counts map[int]uint64
	total  uint64
}

// NewHistogram returns an empty histogram.
func NewHistogram() *Histogram { return &Histogram{counts: make(map[int]uint64)} }

// Add records one observation of value v.
func (h *Histogram) Add(v int) { h.counts[v]++; h.total++ }

// AddN records n observations of value v.
func (h *Histogram) AddN(v int, n uint64) { h.counts[v] += n; h.total += n }

// Count returns the observations of value v.
func (h *Histogram) Count(v int) uint64 { return h.counts[v] }

// Values returns the distinct observed values in ascending order.
func (h *Histogram) Values() []int {
	out := make([]int, 0, len(h.counts))
	for v := range h.counts {
		out = append(out, v)
	}
	sort.Ints(out)
	return out
}

// CDF converts the histogram into an empirical CDF.
func (h *Histogram) CDF() []CDFPoint {
	if h.total == 0 {
		return nil
	}
	var out []CDFPoint
	var cum uint64
	for _, v := range h.Values() {
		cum += h.counts[v]
		out = append(out, CDFPoint{Value: float64(v), Fraction: float64(cum) / float64(h.total)})
	}
	return out
}

// Merge adds other's observations into h.
func (h *Histogram) Merge(other *Histogram) {
	for v, c := range other.counts {
		h.counts[v] += c
	}
	h.total += other.total
}

// Ratio returns a/b, or 0 when b == 0; the analysis layer uses it to avoid
// NaNs in sparse cells.
func Ratio(a, b uint64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}
