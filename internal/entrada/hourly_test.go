package entrada

import (
	"math"
	"sort"
	"testing"

	"dnscentral/internal/cloudmodel"
	"dnscentral/internal/workload"
)

func TestHourlySeriesShowsDiurnalPattern(t *testing.T) {
	_, _, ag := runPipeline(t, workload.Config{
		Vantage: cloudmodel.VantageNZ, Week: cloudmodel.W2020,
		TotalQueries: 30000, Seed: 32, ResolverScale: 0.002,
		DiurnalAmplitude: 0.6,
	})
	if len(ag.Hourly) < 7*24-2 {
		t.Fatalf("hourly buckets = %d, want ≈168", len(ag.Hourly))
	}
	minN, maxN := interiorHourRange(ag.Hourly)
	if maxN < 2*minN {
		t.Errorf("peak/trough = %d/%d, want ≥2x diurnal swing", maxN, minN)
	}
}

// interiorHourRange finds the min/max hourly counts excluding the first
// and last (partially covered) capture hours.
func interiorHourRange(hourly map[int64]uint64) (minN, maxN uint64) {
	keys := make([]int64, 0, len(hourly))
	for h := range hourly {
		keys = append(keys, h)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	minN = math.MaxUint64
	for _, h := range keys[1 : len(keys)-1] {
		n := hourly[h]
		if n < minN {
			minN = n
		}
		if n > maxN {
			maxN = n
		}
	}
	return minN, maxN
}

func TestFlatTraceHasNoDiurnalSwing(t *testing.T) {
	_, _, ag := runPipeline(t, workload.Config{
		Vantage: cloudmodel.VantageNZ, Week: cloudmodel.W2020,
		TotalQueries: 40000, Seed: 33, ResolverScale: 0.002,
		DiurnalAmplitude: -1, // clamped to 0: flat
	})
	minN, maxN := interiorHourRange(ag.Hourly)
	if float64(maxN) > 1.6*float64(minN) {
		t.Errorf("flat trace peak/trough = %d/%d", maxN, minN)
	}
}
