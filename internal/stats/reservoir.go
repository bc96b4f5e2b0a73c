package stats

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"time"
)

// DurationReservoir is a fixed-memory, deterministic sketch of a duration
// sample set, built for the entrada analyzer's per-key RTT tracking where
// an unbounded []time.Duration per key would grow with traffic volume.
//
// It is a log-bucketed histogram (DDSketch-style): durations are clamped
// to [reservoirMin, reservoirMax] and counted in geometrically-spaced
// buckets with ratio reservoirGamma, giving a bounded relative error of
// (gamma-1)/2 ≈ 0.5% on any quantile. The state is a pure function of the
// sample multiset — no randomness, no insertion-order dependence — so
// Merge is commutative and associative and the analyzer's byte-identical
// shard-merge invariant holds by construction.
type DurationReservoir struct {
	counts map[int32]uint64
	total  uint64
}

const (
	// reservoirGamma is the bucket boundary ratio: ~0.5% relative error.
	reservoirGamma = 1.01
	// reservoirMin and reservoirMax clamp the tracked range; with gamma
	// 1.01 this spans ln(60s/1µs)/ln(1.01) ≈ 1795 buckets at most, so a
	// fully-populated reservoir stays under ~30 KiB.
	reservoirMin = time.Microsecond
	reservoirMax = time.Minute
)

// reservoirBucket maps d to its bucket index. Indices are derived from
// integer-exact clamping plus a float log whose result is floored; the
// same input always lands in the same bucket on every platform Go
// supports (math.Log is correctly rounded per spec on all first-class
// ports), keeping shard merges deterministic.
func reservoirBucket(d time.Duration) int32 {
	if d < reservoirMin {
		d = reservoirMin
	}
	if d > reservoirMax {
		d = reservoirMax
	}
	ratio := float64(d) / float64(reservoirMin)
	return int32(math.Floor(math.Log(ratio) / math.Log(reservoirGamma)))
}

// reservoirValue returns the representative duration for bucket i: the
// geometric midpoint of the bucket's bounds, which bounds the relative
// reconstruction error by (gamma-1)/2.
func reservoirValue(i int32) time.Duration {
	lo := float64(reservoirMin) * math.Pow(reservoirGamma, float64(i))
	return time.Duration(lo * math.Sqrt(reservoirGamma))
}

// DurationBucket maps d to its log-bucket index — the same bucketing the
// reservoir itself uses, exported so other fixed-memory duration sketches
// (internal/telemetry histograms) share one bucket geometry and their
// quantiles stay comparable with reservoir medians.
func DurationBucket(d time.Duration) int32 { return reservoirBucket(d) }

// DurationBucketUpper returns the exclusive upper bound of bucket i,
// usable as a Prometheus histogram `le` boundary.
func DurationBucketUpper(i int32) time.Duration {
	return time.Duration(float64(reservoirMin) * math.Pow(reservoirGamma, float64(i+1)))
}

// NumDurationBuckets is the size of the bucket index space: every
// DurationBucket result is in [0, NumDurationBuckets).
func NumDurationBuckets() int { return int(reservoirBucket(reservoirMax)) + 1 }

// Observe adds one sample.
func (r *DurationReservoir) Observe(d time.Duration) {
	if r.counts == nil {
		r.counts = make(map[int32]uint64, 8)
	}
	r.counts[reservoirBucket(d)]++
	r.total++
}

// Count returns the number of samples observed. A nil reservoir is empty.
func (r *DurationReservoir) Count() uint64 {
	if r == nil {
		return 0
	}
	return r.total
}

// Merge folds other into r. Because both sides are pure functions of
// their sample multisets, merge order can never change the result.
func (r *DurationReservoir) Merge(other *DurationReservoir) {
	if other == nil || other.total == 0 {
		return
	}
	if r.counts == nil {
		r.counts = make(map[int32]uint64, len(other.counts))
	}
	for i, c := range other.counts {
		r.counts[i] += c
	}
	r.total += other.total
}

// EachBucket calls fn for every occupied bucket in ascending index
// order — the deterministic export side of a persisted sketch.
func (r *DurationReservoir) EachBucket(fn func(i int32, n uint64)) {
	if r == nil || r.total == 0 {
		return
	}
	for _, i := range r.sortedBuckets() {
		fn(i, r.counts[i])
	}
}

// ObserveBucketN adds n samples directly to bucket i: the inverse of
// EachBucket, for restoring a serialized sketch. Restoring every
// exported (i, n) pair reconstructs the exact state.
func (r *DurationReservoir) ObserveBucketN(i int32, n uint64) {
	if n == 0 {
		return
	}
	if r.counts == nil {
		r.counts = make(map[int32]uint64, 8)
	}
	r.counts[i] += n
	r.total += n
}

// Clone returns an independent copy of r.
func (r *DurationReservoir) Clone() *DurationReservoir {
	if r == nil || r.total == 0 {
		return &DurationReservoir{}
	}
	c := &DurationReservoir{counts: make(map[int32]uint64, len(r.counts)), total: r.total}
	for i, n := range r.counts {
		c.counts[i] = n
	}
	return c
}

// Median returns the sketched median over the bucket representatives: the
// middle sample for odd counts, the mean of the two middle samples for even
// counts. Zero if empty.
func (r *DurationReservoir) Median() time.Duration {
	if r == nil || r.total == 0 {
		return 0
	}
	idxs := r.sortedBuckets()
	if r.total%2 == 1 {
		return reservoirValue(r.nthSample(idxs, r.total/2))
	}
	lo := reservoirValue(r.nthSample(idxs, r.total/2-1))
	hi := reservoirValue(r.nthSample(idxs, r.total/2))
	return (lo + hi) / 2
}

func (r *DurationReservoir) sortedBuckets() []int32 {
	idxs := make([]int32, 0, len(r.counts))
	for i := range r.counts {
		idxs = append(idxs, i)
	}
	sort.Slice(idxs, func(a, b int) bool { return idxs[a] < idxs[b] })
	return idxs
}

// nthSample returns the bucket holding the n-th (0-based) sample in
// ascending order.
func (r *DurationReservoir) nthSample(sorted []int32, n uint64) int32 {
	var seen uint64
	for _, i := range sorted {
		seen += r.counts[i]
		if n < seen {
			return i
		}
	}
	return sorted[len(sorted)-1]
}

// String renders a compact deterministic summary, usable in reports.
func (r *DurationReservoir) String() string {
	if r.Count() == 0 {
		return "reservoir(empty)"
	}
	var sb strings.Builder
	fmt.Fprintf(&sb, "reservoir(n=%d median=%s)", r.total, r.Median())
	return sb.String()
}
