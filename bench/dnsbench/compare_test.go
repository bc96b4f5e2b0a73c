package main

import (
	"bytes"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles of 1..10 = %v, %v; Python gives 2.75, 8.25", q1, q3)
	}
	// statistics.quantiles([1.0, 2.0, 4.0], n=4) == [1.0, 2.0, 4.0]
	if q1, q3 := quartiles([]float64{1, 2, 4}); q1 != 1 || q3 != 4 {
		t.Errorf("quartiles of 1,2,4 = %v, %v; Python gives 1, 4", q1, q3)
	}
	if s := spread([]float64{5}); s != 0 {
		t.Errorf("spread of one value = %v", s)
	}
}

// set builds a run set with one workload whose metric takes the values.
func set(metric string, values ...float64) runSet {
	var s runSet
	for _, v := range values {
		s.Runs = append(s.Runs, &runResult{Workload: "serve_hot", Metrics: map[string]value{metric: {Value: v}}})
	}
	return s
}

func TestCompareVerdicts(t *testing.T) {
	dir := t.TempDir()
	bench := filepath.Join(dir, "BENCHMARK.json")
	if err := os.WriteFile(bench, []byte(`{"workloads":[{"name":"serve_hot","why":""}],"end_to_end":[
		{"name":"lat_p50_ms","unit":"ms","better":"lower","bound":0.1},
		{"name":"ops_per_s","unit":"1/s","better":"higher","bound":0.1}]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	write := func(name string, s runSet) string {
		path := filepath.Join(dir, name)
		if err := writeJSON(path, s); err != nil {
			t.Fatal(err)
		}
		return path
	}
	base := write("a.json", set("lat_p50_ms", 1.00, 1.01, 0.99, 1.00, 1.02))
	for _, tc := range []struct {
		name    string
		b       runSet
		verdict string
		worse   bool
	}{
		{"same", set("lat_p50_ms", 1.03, 1.04, 1.05, 1.03, 1.04), "same", false},
		{"worse", set("lat_p50_ms", 1.20, 1.21, 1.19, 1.20, 1.22), "worse", true},
		{"better", set("lat_p50_ms", 0.80, 0.81, 0.79, 0.80, 0.82), "better", false},
		{"unresolved", set("lat_p50_ms", 0.8, 1.0, 1.2, 1.4, 1.6), "unresolved", false},
	} {
		var out bytes.Buffer
		worse, err := compareFiles(&out, bench, base, write("b.json", tc.b))
		if err != nil {
			t.Fatal(err)
		}
		if worse != tc.worse || !strings.Contains(out.String(), tc.verdict) {
			t.Errorf("%s: worse=%v, output:\n%s", tc.name, worse, out.String())
		}
	}
	// For a metric where higher is better, a fall is what is worse.
	var out bytes.Buffer
	worse, err := compareFiles(&out, bench, write("c.json", set("ops_per_s", 100, 101, 99)), write("d.json", set("ops_per_s", 80, 81, 79)))
	if err != nil || !worse {
		t.Errorf("ops_per_s falling by 20 %%: worse=%v err=%v\n%s", worse, err, out.String())
	}
	if math.IsNaN(spread(nil)) {
		t.Error("spread of nothing is NaN")
	}
}
