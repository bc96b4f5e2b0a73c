package stats

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// histogramOf counts xs in a fresh Histogram.
func histogramOf(xs ...int) *Histogram {
	h := NewHistogram()
	for _, x := range xs {
		h.Add(x)
	}
	return h
}

func TestCDFStepsAndMonotonicity(t *testing.T) {
	cdf := histogramOf(512, 512, 1232, 4096).CDF()
	if len(cdf) != 3 {
		t.Fatalf("cdf = %v", cdf)
	}
	if cdf[0].Value != 512 || cdf[0].Fraction != 0.5 {
		t.Errorf("first point = %+v", cdf[0])
	}
	if cdf[len(cdf)-1].Fraction != 1 {
		t.Errorf("last fraction = %v", cdf[len(cdf)-1].Fraction)
	}
	for i := 1; i < len(cdf); i++ {
		if cdf[i].Value <= cdf[i-1].Value || cdf[i].Fraction < cdf[i-1].Fraction {
			t.Errorf("not monotone at %d: %+v", i, cdf)
		}
	}
}

func TestCDFAt(t *testing.T) {
	cdf := histogramOf(512, 1232, 4096, 4096).CDF()
	cases := []struct {
		v    float64
		want float64
	}{
		{100, 0},
		{512, 0.25},
		{1000, 0.25},
		{1232, 0.5},
		{4096, 1},
		{9000, 1},
	}
	for _, c := range cases {
		if got := CDFAt(cdf, c.v); math.Abs(got-c.want) > 1e-9 {
			t.Errorf("CDFAt(%v) = %v, want %v", c.v, got, c.want)
		}
	}
	if CDFAt(nil, 5) != 0 {
		t.Error("empty CDF should evaluate to 0")
	}
}

// TestPropertyCDFMonotone holds Histogram.CDF, the CDF behind Figure 6's
// EDNS-size curves, to a step function: values strictly rising, fractions
// never falling, and the last fraction exactly 1.
func TestPropertyCDFMonotone(t *testing.T) {
	f := func(values []int16, counts []uint16) bool {
		h := NewHistogram()
		for i, v := range values {
			var n uint64 = 1
			if i < len(counts) {
				n = uint64(counts[i])
			}
			h.AddN(int(v), n)
		}
		cdf := h.CDF()
		last := -math.MaxFloat64
		lastF := 0.0
		for _, p := range cdf {
			if p.Value <= last || p.Fraction < lastF {
				return false
			}
			last, lastF = p.Value, p.Fraction
		}
		if h.total == 0 {
			return len(cdf) == 0
		}
		return cdf[len(cdf)-1].Fraction == 1
	}
	cfg := &quick.Config{MaxCount: 300, Rand: rand.New(rand.NewSource(1))}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

func TestZipfSkew(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	z := NewZipf(r, 1.1, 10000)
	counts := make(map[uint64]int)
	const draws = 200000
	for i := 0; i < draws; i++ {
		counts[z.Next()]++
	}
	// Rank 0 must dominate and the top 100 ranks must hold most mass.
	if counts[0] < counts[1] {
		t.Errorf("rank0=%d < rank1=%d", counts[0], counts[1])
	}
	top := 0
	for rk := uint64(0); rk < 100; rk++ {
		top += counts[rk]
	}
	if float64(top)/draws < 0.5 {
		t.Errorf("top-100 mass = %v, want > 0.5", float64(top)/draws)
	}
}

func TestZipfClampsSkew(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	z := NewZipf(r, 0.5, 100) // would panic in rand.NewZipf without clamping
	for i := 0; i < 1000; i++ {
		if v := z.Next(); v >= 100 {
			t.Fatalf("draw %d out of range", v)
		}
	}
}

func TestWeightedChoice(t *testing.T) {
	w, err := NewWeightedChoice([]float64{1, 0, 3})
	if err != nil {
		t.Fatal(err)
	}
	r := rand.New(rand.NewSource(3))
	counts := [3]int{}
	const draws = 100000
	for i := 0; i < draws; i++ {
		counts[w.Pick(r)]++
	}
	if counts[1] != 0 {
		t.Errorf("zero-weight index drawn %d times", counts[1])
	}
	got := float64(counts[2]) / draws
	if math.Abs(got-0.75) > 0.02 {
		t.Errorf("index 2 frequency = %v, want ~0.75", got)
	}
}

func TestWeightedChoiceErrors(t *testing.T) {
	if _, err := NewWeightedChoice([]float64{0, 0}); err == nil {
		t.Error("all-zero weights accepted")
	}
	if _, err := NewWeightedChoice([]float64{1, -1}); err == nil {
		t.Error("negative weight accepted")
	}
	if _, err := NewWeightedChoice([]float64{math.NaN()}); err == nil {
		t.Error("NaN weight accepted")
	}
}

func TestHistogram(t *testing.T) {
	h := NewHistogram()
	h.Add(512)
	h.Add(512)
	h.AddN(1232, 2)
	if h.total != 4 || h.Count(512) != 2 || h.Count(1232) != 2 || h.Count(999) != 0 {
		t.Errorf("histogram state wrong: total=%d", h.total)
	}
	vals := h.Values()
	if len(vals) != 2 || vals[0] != 512 || vals[1] != 1232 {
		t.Errorf("values = %v", vals)
	}
	cdf := h.CDF()
	if len(cdf) != 2 || cdf[0].Fraction != 0.5 || cdf[1].Fraction != 1 {
		t.Errorf("cdf = %v", cdf)
	}
}

func TestHistogramMerge(t *testing.T) {
	a, b := NewHistogram(), NewHistogram()
	a.Add(1)
	b.Add(1)
	b.Add(2)
	a.Merge(b)
	if a.total != 3 || a.Count(1) != 2 || a.Count(2) != 1 {
		t.Error("merge wrong")
	}
}

func TestHistogramEmptyCDF(t *testing.T) {
	if NewHistogram().CDF() != nil {
		t.Error("empty histogram CDF should be nil")
	}
}

func TestRatio(t *testing.T) {
	if Ratio(1, 0) != 0 {
		t.Error("divide by zero not guarded")
	}
	if Ratio(1, 4) != 0.25 {
		t.Error("ratio wrong")
	}
}
