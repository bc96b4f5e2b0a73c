package main

import (
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"
)

// tinySizes shrinks every workload so that all of them run in seconds.
var tinySizes = sizes{
	setupReps: 1, traceQueries: 4000, replay: 400,
	hot: serveParams{
		hot: true, names: 10, domains: 1000, limit: 50 * time.Millisecond,
		rateLow: 2000, rateHigh: 20000, rateOverload: 30000,
		ladderLo: 10000, ladderHi: 20000, ladderStep: 1.25, rungDur: 40 * time.Millisecond,
	},
	cold: serveParams{
		hot: false, names: 10, domains: 1000, fill: 500, limit: 50 * time.Millisecond,
		rateLow: 500, rateHigh: 3000, rateOverload: 5000,
		ladderLo: 1000, ladderHi: 2000, ladderStep: 1.25, rungDur: 40 * time.Millisecond,
	},
	follow: followParams{window: time.Hour, idleExit: 150 * time.Millisecond, paceBytesPerS: 40e6, chunk: 64<<10 + 1},
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// TestBenchmarkJSONAgreement: BENCHMARK.json and the program name the same
// workloads and metrics, and a run of every workload, untraced and traced,
// emits exactly those metrics, each with its unit, and skips no output check.
func TestBenchmarkJSONAgreement(t *testing.T) {
	// dnsbench runs from the repository root; a repeated test is there already.
	if _, err := os.Stat("BENCHMARK.json"); err != nil {
		if err := os.Chdir("../.."); err != nil {
			t.Fatal(err)
		}
	}
	bf, err := readBenchmarkFile("BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if len(bf.Workloads) != len(workloadNames) {
		t.Fatalf("BENCHMARK.json has %d workloads, the program %d", len(bf.Workloads), len(workloadNames))
	}
	for i, w := range bf.Workloads {
		if w.Name != workloadNames[i] {
			t.Errorf("workload %d: BENCHMARK.json says %q, the program %q", i, w.Name, workloadNames[i])
		}
		if w.Why == "" || len(w.Why) > 200 {
			t.Errorf("workload %s: why must be 1–200 characters, has %d", w.Name, len(w.Why))
		}
	}
	seen := map[string]bool{}
	same := func(kind string, i int, name, unit, better string, d metricDef) {
		if name != d.Name || unit != d.Unit || better != d.Better {
			t.Errorf("%s metric %d: BENCHMARK.json says %s [%s, %s is better], the program %s [%s, %s]", kind, i, name, unit, better, d.Name, d.Unit, d.Better)
		}
		if !nameRE.MatchString(name) || unit == "" || seen[name] {
			t.Errorf("%s metric %q [%q]: bad or repeated name, or no unit", kind, name, unit)
		}
		seen[name] = true
	}
	if len(bf.EndToEnd) != len(endToEnd) || len(bf.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json has %d+%d metrics, the program %d+%d", len(bf.EndToEnd), len(bf.PerLayer), len(endToEnd), len(perLayer))
	}
	setupBound, maxBound := 0.0, 0.0
	for i, m := range bf.EndToEnd {
		same("end-to-end", i, m.Name, m.Unit, m.Better, endToEnd[i])
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
		maxBound = max(maxBound, m.Bound)
		if m.Name == "setup_s" {
			setupBound = m.Bound
		}
	}
	if setupBound != maxBound {
		t.Errorf("setup_s has bound %v, the largest is %v", setupBound, maxBound)
	}
	for i, m := range bf.PerLayer {
		same("per-layer", i, m.Name, m.Unit, m.Better, perLayer[i])
	}

	if testing.Short() {
		return
	}
	r, err := newRunner()
	if err != nil {
		t.Fatal(err)
	}
	defer r.procs.killAll()
	if err := r.build(); err != nil {
		t.Fatal(err)
	}
	// Tiny results must not replace those of a real run in bench/out.
	r.sizes, r.outDir = tinySizes, t.TempDir()
	wantChecks := map[string][]string{
		"serve_hot":      {"generator_kept_up", "replies_valid", "fixed_rate_loss", "hit_ratio"},
		"serve_cold":     {"generator_kept_up", "replies_valid", "fixed_rate_loss", "hit_ratio"},
		"capture_batch":  {"reference_matches_ground_truth", "reports_identical_to_reference"},
		"capture_follow": {"reference_matches_ground_truth", "reports_identical_to_reference", "every_window_closed", "checkpoint_restores"},
	}
	for _, w := range workloadNames {
		for _, trace := range []bool{false, true} {
			res, err := r.guarded(w, 7, 0.5, trace)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w, trace, err)
			}
			if len(res.Metrics) != len(endToEnd)+len(perLayer) {
				t.Errorf("%s: %d metrics emitted, %d defined", w, len(res.Metrics), len(endToEnd)+len(perLayer))
			}
			for name, v := range res.Metrics {
				if !seen[name] || v.Unit == "" {
					t.Errorf("%s: metric %q [%q] is not in BENCHMARK.json or has no unit", w, name, v.Unit)
				}
			}
			if !trace {
				for _, d := range endToEnd {
					if res.Metrics[d.Name].Value <= 0 {
						t.Errorf("%s: end-to-end metric %s = %v, must never be 0", w, d.Name, res.Metrics[d.Name].Value)
					}
				}
			}
			// Two checks judge the measurement, not the programs' outputs: a
			// tiny run on a shared test box must make them, not pass them.
			validity := map[string]bool{"overload_saturates": true, "generator_kept_up": true}
			ran := map[string]bool{}
			for _, c := range res.Checks {
				ran[c.Name] = true
				if !c.OK && !validity[c.Name] {
					t.Errorf("%s trace=%v: check %s failed: %s", w, trace, c.Name, c.Detail)
				}
			}
			want := wantChecks[w]
			if !trace && strings.HasPrefix(w, "serve_") {
				want = append([]string{"overload_saturates"}, want...)
			}
			for _, name := range want {
				if !ran[name] {
					t.Errorf("%s trace=%v: output check %s was skipped", w, trace, name)
				}
			}
			if res.Attempted == 0 {
				t.Errorf("%s trace=%v: nothing attempted", w, trace)
			}
			if trace {
				if st, err := os.Stat(filepath.Join(r.outDir, "trace-"+w+".jsonl")); err != nil || st.Size() == 0 {
					t.Errorf("%s: no trace file: %v", w, err)
				}
			}
		}
	}
}
