package stats

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"time"
)

func TestReservoirMedianWithinTolerance(t *testing.T) {
	rnd := rand.New(rand.NewSource(42))
	for _, n := range []int{1, 2, 3, 10, 101, 5000} {
		var r DurationReservoir
		samples := make([]time.Duration, n)
		for i := range samples {
			// Log-uniform over 100µs..2s, the realistic RTT range.
			d := time.Duration(float64(100*time.Microsecond) *
				math.Pow(2e4, rnd.Float64()))
			samples[i] = d
			r.Observe(d)
		}
		exact := exactMedian(samples)
		got := r.Median()
		relerr := math.Abs(float64(got)-float64(exact)) / float64(exact)
		// Gamma 1.01 bounds per-sample error by ~0.5%; the even-count
		// midpoint can combine two buckets, so allow 1%.
		if relerr > 0.01 {
			t.Errorf("n=%d: median %v vs exact %v (relerr %.4f)", n, got, exact, relerr)
		}
		if r.Count() != uint64(n) {
			t.Errorf("n=%d: Count = %d", n, r.Count())
		}
	}
}

// exactMedian is the oracle for DurationReservoir.Median: the central
// sample, or the mean of the two central samples for an even count.
func exactMedian(ds []time.Duration) time.Duration {
	s := append([]time.Duration(nil), ds...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func TestReservoirEmptyAndNil(t *testing.T) {
	var nilRes *DurationReservoir
	if nilRes.Count() != 0 || nilRes.Median() != 0 {
		t.Error("nil reservoir should be empty")
	}
	var empty DurationReservoir
	if empty.Median() != 0 {
		t.Error("empty reservoir median should be 0")
	}
}

func TestReservoirClamping(t *testing.T) {
	var r DurationReservoir
	r.Observe(0)                // below min → clamped to 1µs bucket
	r.Observe(-time.Second)     // negative → clamped
	r.Observe(10 * time.Minute) // above max → clamped to 60s bucket
	if r.Count() != 3 {
		t.Fatalf("Count = %d", r.Count())
	}
	if m := r.Median(); m > 2*reservoirMax || m < 0 {
		t.Fatalf("median of clamped extremes out of range: %v", m)
	}
}

// TestReservoirMergeOrderInsensitive is the property the entrada shard
// merge requires: any split of the sample stream, merged in any order,
// yields a reservoir with identical state (hence identical medians).
func TestReservoirMergeOrderInsensitive(t *testing.T) {
	rnd := rand.New(rand.NewSource(7))
	samples := make([]time.Duration, 2000)
	for i := range samples {
		samples[i] = time.Duration(rnd.Int63n(int64(time.Second)))
	}
	var whole DurationReservoir
	for _, d := range samples {
		whole.Observe(d)
	}
	for _, k := range []int{2, 3, 5} {
		shards := make([]*DurationReservoir, k)
		for i := range shards {
			shards[i] = &DurationReservoir{}
		}
		for i, d := range samples {
			shards[i%k].Observe(d)
		}
		for trial := 0; trial < 4; trial++ {
			perm := rnd.Perm(k)
			var merged DurationReservoir
			for _, i := range perm {
				merged.Merge(shards[i])
			}
			if merged.Count() != whole.Count() {
				t.Fatalf("k=%d perm=%v: count %d != %d", k, perm, merged.Count(), whole.Count())
			}
			if merged.Median() != whole.Median() {
				t.Fatalf("k=%d perm=%v: median %v != %v", k, perm, merged.Median(), whole.Median())
			}
			if len(merged.counts) != len(whole.counts) {
				t.Fatalf("k=%d: bucket sets differ", k)
			}
			for b, c := range whole.counts {
				if merged.counts[b] != c {
					t.Fatalf("k=%d bucket %d: %d != %d", k, b, merged.counts[b], c)
				}
			}
		}
	}
}

func TestReservoirMergeNilAndEmpty(t *testing.T) {
	var r DurationReservoir
	r.Observe(time.Millisecond)
	before := r.Median()
	r.Merge(nil)
	r.Merge(&DurationReservoir{})
	if r.Median() != before || r.Count() != 1 {
		t.Error("merging nil/empty changed state")
	}
}

func TestReservoirClone(t *testing.T) {
	var r DurationReservoir
	r.Observe(5 * time.Millisecond)
	c := r.Clone()
	c.Observe(100 * time.Millisecond)
	if r.Count() != 1 || c.Count() != 2 {
		t.Fatalf("clone not independent: %d/%d", r.Count(), c.Count())
	}
}

func TestReservoirBoundedMemory(t *testing.T) {
	var r DurationReservoir
	rnd := rand.New(rand.NewSource(3))
	for i := 0; i < 200000; i++ {
		r.Observe(time.Duration(rnd.Int63n(int64(2 * time.Minute))))
	}
	// ln(60s/1µs)/ln(1.01) ≈ 1795 buckets possible; anything near that is
	// fine, unbounded growth is not.
	if len(r.counts) > 1800 {
		t.Fatalf("reservoir grew to %d buckets", len(r.counts))
	}
}
